package simsrv

import (
	"math"
	"reflect"

	"psd/internal/dist"
	"psd/internal/rng"
)

// variateMemo is one class stream (arrivals or sizes) that records its
// variates the first time a replication draws them and replays them to
// every later replication that derives the same stream. Every policy and
// every figure point sharing a seed splits bit-identical per-class
// streams (common random numbers), so a worker that runs them back to
// back computes each logarithm and power once instead of once per
// member.
//
// Replay is exact for any config by construction: the key is the
// stream's initial state (plus, for sizes, the law), draws past the
// recorded end continue from the saved Source and are appended, and a
// different key discards the recording. Members may therefore differ in
// λ, LoadSchedule, policy, admission or model and need more or fewer
// draws. Arrival streams record rate-free Exp(1) variates
// (rng.Source.UnitExp), which the caller divides by its current rate —
// exactly rng.Source.ExpFloat64.
type variateMemo struct {
	key   rng.Source        // the stream's initial state
	law   dist.Distribution // the law sampled (size streams; nil for arrivals)
	draws []float64         // recorded variates, in draw order
	pos   int               // next draw to hand out
	cont  rng.Source        // the stream after the last recorded draw
}

// rewind arms m for a replication whose stream starts at src and samples
// law (nil for an arrival stream). The same stream under the same law
// replays from draw 0; anything else discards the recording and starts a
// new one, with room for about expected draws so that recording does not
// grow the buffer in steady state.
func (m *variateMemo) rewind(src *rng.Source, law dist.Distribution, expected float64) {
	m.pos = 0
	// An all-zero key never matches: SplitInto never derives that state.
	if m.key == *src && sameLaw(m.law, law) {
		return
	}
	m.key, m.cont, m.law = *src, *src, law
	m.draws = m.draws[:0]
	// Poisson counts rarely exceed their mean by 4σ; a rarer overflow
	// just grows the buffer once, and the capacity is retained.
	if want := int(expected + 4*math.Sqrt(expected) + 16); cap(m.draws) < want {
		m.draws = make([]float64, 0, want)
	}
}

// unitExp returns the arrival stream's next Exp(1) variate.
func (m *variateMemo) unitExp() float64 {
	if m.pos < len(m.draws) {
		m.pos++
		return m.draws[m.pos-1]
	}
	return m.record(m.cont.UnitExp())
}

// sample returns the size stream's next draw from its law.
func (m *variateMemo) sample() float64 {
	if m.pos < len(m.draws) {
		m.pos++
		return m.draws[m.pos-1]
	}
	return m.record(m.law.Sample(&m.cont))
}

// record appends a fresh draw, made from cont, to the recording.
func (m *variateMemo) record(v float64) float64 {
	m.draws = append(m.draws, v)
	m.pos++
	return v
}

// sameLaw reports whether a stream recorded under law a replays under b:
// both are the same comparable value (for pointer laws, the same
// pointer), which dist.Distribution's Sample contract makes
// interchangeable. The check is on the dynamic values, so a law that
// cannot be compared — a struct with a slice field, or one wrapping such
// a law in an interface field — never replays and never makes == panic.
func sameLaw(a, b dist.Distribution) bool {
	if a == nil || b == nil {
		return a == b
	}
	return reflect.ValueOf(a).Comparable() && reflect.ValueOf(b).Comparable() && a == b
}
