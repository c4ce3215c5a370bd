package simsrv

import (
	"testing"

	"psd/internal/admission"
)

// TestAdmissionProtectsOverloadedServer: at offered load 1.3 the PSD
// allocator is permanently infeasible and queues grow without bound; a
// utilization-bound admission controller sheds enough work to restore a
// stable, differentiated system (related work §5's combination of
// admission control and scheduling).
func TestAdmissionProtectsOverloadedServer(t *testing.T) {
	mk := func(ctrl admission.Controller) Config {
		cfg := EqualLoadConfig([]float64{1, 2}, 1.3, nil) // 30% overload
		cfg.Warmup = 2000
		cfg.Horizon = 15000
		cfg.Seed = 4
		cfg.Admission = ctrl
		// The utilization bound sheds large jobs first, so the admitted
		// count rate stays near the offered rate while admitted work
		// drops — count-based estimation would read phantom overload.
		cfg.EstimateFromWork = ctrl != nil
		return cfg
	}

	ub, err := admission.NewUtilizationBound(0.85, 500)
	if err != nil {
		t.Fatal(err)
	}
	protected, err := Run(mk(ub))
	if err != nil {
		t.Fatal(err)
	}
	unprotected, err := Run(mk(nil))
	if err != nil {
		t.Fatal(err)
	}

	// The controller must actually shed load…
	var rejected int64
	for _, cs := range protected.Classes {
		rejected += cs.Rejected
	}
	if rejected == 0 {
		t.Fatal("no rejections at 30% overload")
	}
	// …and the protected system must be dramatically healthier.
	if !(protected.SystemSlowdown < unprotected.SystemSlowdown/3) {
		t.Fatalf("admission control ineffective: protected %v vs unprotected %v",
			protected.SystemSlowdown, unprotected.SystemSlowdown)
	}
	// Differentiation ordering survives admission control.
	if !(protected.Classes[0].MeanSlowdown < protected.Classes[1].MeanSlowdown) {
		t.Fatalf("ordering violated under admission control: %v vs %v",
			protected.Classes[0].MeanSlowdown, protected.Classes[1].MeanSlowdown)
	}
	// Reallocation should mostly succeed once load is shed.
	if protected.AllocFailures > protected.Reallocations {
		t.Fatalf("allocator still mostly infeasible: %d failures vs %d successes",
			protected.AllocFailures, protected.Reallocations)
	}
}

// TestTokenBucketAdmissionIsolation: a flood on class 2 cannot consume
// class 1's admission capacity under per-class token buckets. The gate
// sits in front of both server disciplines, so the packetized model
// counts rejections exactly like the fluid one.
func TestTokenBucketAdmissionIsolation(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Config) (*Result, error)
	}{
		{"fluid", Run},
		{"packetized", func(cfg Config) (*Result, error) {
			return RunPacketized(PacketizedConfig{Config: cfg})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := EqualLoadConfig([]float64{1, 2}, 0.5, nil)
			cfg.Warmup = 1000
			cfg.Horizon = 10000
			cfg.Seed = 9
			// Class 2 floods at 4× its declared share. The burst must
			// exceed the Bounded Pareto upper bound (100): a job larger
			// than the burst can never gather enough credit and would be
			// rejected even from an otherwise idle class.
			cfg.Classes[1].Lambda *= 4
			tb, err := admission.NewTokenBucket([]float64{0.4, 0.4}, 150)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Admission = tb
			res, err := tc.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Classes[0].Rejected != 0 {
				t.Fatalf("well-behaved class suffered %d rejections", res.Classes[0].Rejected)
			}
			if res.Classes[1].Rejected == 0 {
				t.Fatal("flooding class was not throttled")
			}
			if res.Classes[0].Count == 0 || res.Classes[1].Count == 0 {
				t.Fatal("classes starved")
			}
		})
	}
}

func TestNoAdmissionFieldMeansNoRejections(t *testing.T) {
	cfg := fastConfig([]float64{1, 2}, 0.5)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, cs := range res.Classes {
		if cs.Rejected != 0 {
			t.Fatalf("class %d reports %d rejections without a controller", i, cs.Rejected)
		}
	}
}
