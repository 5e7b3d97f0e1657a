package godpm_test

import (
	"fmt"
	"testing"

	"godpm"
	"godpm/internal/experiments"
)

// catalogConfigs lists every configuration the built-in catalogs produce:
// the Table 2 scenarios and their always-on baselines, the extensions, the
// ablations, every sweep study point and baseline, and the tournament
// arena crossed with the standard policies.
func catalogConfigs(tn godpm.Tuning) map[string]godpm.Config {
	out := make(map[string]godpm.Config)
	for _, s := range godpm.Scenarios(tn) {
		out[s.ID] = s.Config
		out[s.ID+"/base"] = godpm.Baseline(s)
	}
	for _, s := range godpm.Extensions(tn) {
		out[s.ID] = s.Config
	}
	for _, ab := range experiments.Ablations(tn) {
		for _, v := range ab.Variants {
			out["ablation/"+ab.Name+"/"+v.Label] = v.Config
		}
	}
	for name, sw := range godpm.Studies(tn.Seed, tn.NumTasks) {
		for _, v := range sw.Values {
			id := fmt.Sprintf("study/%s/%g", name, v)
			out[id] = sw.Build(v)
			if sw.BuildBaseline != nil {
				out[id+"/base"] = sw.BuildBaseline(v)
			}
		}
	}
	for _, sc := range godpm.ArenaScenarios(tn.NumTasks) {
		for _, p := range godpm.StandardPolicies() {
			out["arena/"+sc.Name+"/"+p.Name] = p.Apply(sc.Config)
		}
	}
	return out
}

// TestFingerprintNormalizedIdempotent pins the cache key's normalization
// property over every catalog configuration: normalizing first does not
// change the key, so a config and its normalized form share a cache slot.
func TestFingerprintNormalizedIdempotent(t *testing.T) {
	tn := godpm.DefaultTuning()
	tn.NumTasks = 12
	cfgs := catalogConfigs(tn)
	if len(cfgs) < 60 {
		t.Fatalf("catalog lists only %d configurations", len(cfgs))
	}
	for name, cfg := range cfgs {
		norm, err := cfg.Normalized()
		if err != nil {
			t.Fatalf("%s: Normalized: %v", name, err)
		}
		want, err := godpm.Fingerprint(cfg)
		if err != nil {
			t.Fatalf("%s: Fingerprint: %v", name, err)
		}
		got, err := godpm.Fingerprint(norm)
		if err != nil {
			t.Fatalf("%s: Fingerprint(Normalized): %v", name, err)
		}
		if got != want {
			t.Errorf("%s: Fingerprint(Normalized(c)) = %s, Fingerprint(c) = %s", name, got, want)
		}
	}
}
