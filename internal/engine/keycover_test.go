package engine

import (
	"reflect"
	"testing"

	"godpm/internal/acpi"
	"godpm/internal/battery"
	"godpm/internal/bus"
	"godpm/internal/gem"
	"godpm/internal/power"
	"godpm/internal/rules"
	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/task"
	"godpm/internal/thermal"
	"godpm/internal/workload"
)

// coverageBases returns builders of fully populated configurations whose
// leaves, taken together, reach every result-affecting soc.Config field:
// the DPM one sets GEM, regulator, LEM table, per-IP thermal, a generator
// spec with every variant filled, and explicit Sequence and Arrivals
// workloads; the timeout and greedy ones carry the policy parameters
// normalization zeroes under DPM. Each call builds fresh pointers and
// slices, so a perturbed copy never aliases its base.
func coverageBases() map[string]func() soc.Config {
	items := func(n int) workload.Sequence {
		p := workload.HighActivity(11, n)
		p.PriorityWeights = [task.NumPriorities]float64{1, 2, 2, 1}
		p.ClassWeights = [power.NumInstrClasses]float64{1, 1, 1, 1}
		return p.MustGenerate()
	}
	arrivals := func(n int) workload.ArrivalSequence {
		p := workload.LowActivity(12, n)
		p.ClassWeights = [power.NumInstrClasses]float64{1, 1, 1, 1}
		return p.MustGenerateArrivals(50e6)
	}
	gen := func() workload.Spec {
		seed := workload.NewSeed(13)
		spec := workload.ClosedSpec(workload.HighActivity(13, 3))
		spec.Burst = workload.DefaultBurst(14, 3)
		spec.MMPP = workload.DefaultMMPP(seed, 3)
		spec.Periodic = workload.DefaultPeriodic(seed, 3)
		spec.HeavyTail = workload.DefaultHeavyTail(seed, 3)
		spec.Trace = items(2)
		return spec
	}
	common := func(policy soc.PolicyKind) soc.Config {
		return soc.Config{
			IPs: []soc.IPSpec{
				{Name: "seq", Sequence: items(3), StaticPriority: 2, InitialState: acpi.ON2},
				{Name: "arr", Arrivals: arrivals(3), StaticPriority: 1, InitialState: acpi.ON3},
				{Name: "gen", Gen: gen(), StaticPriority: 3, InitialState: acpi.ON2},
			},
			Policy: policy,
			Battery: soc.BatteryConfig{
				Kind: "peukert", CapacityJ: 30, InitialSoC: 0.7, Mains: true,
				RateK: 0.1, RefPower: 0.5, KiBaMC: 0.3, KiBaMK: 0.07,
				PeukertExponent: 1.2, PeukertRefPower: 0.8,
			},
			Thermal:        thermal.DefaultParams(),
			InitialTempC:   52,
			ThermalNetwork: thermal.DefaultNetworkParams(),
			Bus:            bus.Config{FreqHz: 80e6, EnergyPerWord: 40e-12, Arbitration: bus.PriorityOrder},
			BusWords:       16,
			SampleInterval: 200 * sim.Us,
			Horizon:        30 * sim.Sec,
			BaseClockHz:    150e6,
		}
	}
	mustNormalize := func(c soc.Config) soc.Config {
		n, err := c.Normalized()
		if err != nil {
			panic(err)
		}
		return n
	}
	return map[string]func() soc.Config{
		"dpm": func() soc.Config {
			c := common(soc.PolicyDPM)
			c.UseGEM = true
			c.GEM = gem.Config{HighPriorityCutoff: 2, BusOccupancyLimit: 0.5}
			c.PerIPThermal = true
			c.Regulator = power.DefaultRegulator()
			c.LEM = soc.LEMOptions{
				Table:        rules.Table1(),
				Predictor:    soc.PredictorEWMA,
				Alpha:        0.25,
				AllowSoftOff: true,
			}
			return mustNormalize(c)
		},
		"timeout": func() soc.Config {
			c := common(soc.PolicyTimeout)
			c.Timeout = 3 * sim.Ms
			c.TimeoutSleepState = acpi.SL3
			return mustNormalize(c)
		},
		"greedy": func() soc.Config {
			c := common(soc.PolicyGreedy)
			c.GreedySleepState = acpi.SL3
			return mustNormalize(c)
		},
	}
}

// leaf is one exported scalar field reachable from a Config: the
// field/element index steps to it and a path name with indices elided.
type leaf struct {
	steps []int
	name  string
}

// collectLeaves walks v's exported fields, slice and array elements and
// non-nil pointers down to bools, numbers and strings. Unexported state
// (rules.Table's rows) is opaque here and covered separately.
func collectLeaves(v reflect.Value, steps []int, name string, out *[]leaf) {
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				collectLeaves(v.Field(i), append(steps[:len(steps):len(steps)], i), name+"."+f.Name, out)
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			collectLeaves(v.Index(i), append(steps[:len(steps):len(steps)], i), name+"[]", out)
		}
	case reflect.Bool, reflect.String, reflect.Float64,
		reflect.Int, reflect.Int64, reflect.Uint64:
		*out = append(*out, leaf{steps: steps, name: name})
	default:
		panic("collectLeaves: unhandled kind " + v.Kind().String() + " at " + name)
	}
}

// navigate follows a leaf's steps from root to the settable leaf value.
func navigate(root reflect.Value, steps []int) reflect.Value {
	v := root
	for _, s := range steps {
		for v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		if v.Kind() == reflect.Struct {
			v = v.Field(s)
		} else {
			v = v.Index(s)
		}
	}
	return v
}

// enumAlternatives are valid replacement values for string-typed enums,
// whose generic "append a byte" perturbation is rejected by validation.
var enumAlternatives = map[reflect.Type][]string{
	reflect.TypeOf(workload.GenKind("")): {string(workload.GenBurst), string(workload.GenClosed)},
}

// perturbations returns setters that each move the leaf to a different
// value.
func perturbations(v reflect.Value) []func() {
	switch v.Kind() {
	case reflect.Bool:
		b := v.Bool()
		return []func(){func() { v.SetBool(!b) }}
	case reflect.Int, reflect.Int64:
		x := v.Int()
		return []func(){func() { v.SetInt(x + 1) }, func() { v.SetInt(x - 1) }}
	case reflect.Uint64:
		x := v.Uint()
		return []func(){func() { v.SetUint(x + 1) }, func() { v.SetUint(x ^ 1) }}
	case reflect.Float64:
		x := v.Float()
		up, down := x*1.0625, x*0.9375
		if x == 0 {
			up, down = 0.25, -0.25
		}
		return []func(){func() { v.SetFloat(up) }, func() { v.SetFloat(down) }}
	case reflect.String:
		s := v.String()
		out := []func(){func() { v.SetString(s + "x") }}
		for _, alt := range enumAlternatives[v.Type()] {
			if alt != s {
				out = append(out, func() { v.SetString(alt) })
			}
		}
		return out
	}
	panic("perturbations: unhandled kind " + v.Kind().String())
}

// TestKeyEncodingCoversEveryField is the encoder coverage property: every
// exported leaf of a fully populated normalized Config, perturbed to any
// value that still normalizes to a different configuration, changes
// Fingerprint — and changes forkPrefixKey too, except Horizon, which the
// prefix key deliberately ignores. A Config field added without being
// encoded fails here. Perturbations that normalization absorbs (a Timeout
// under the DPM policy, a materialized workload under a Gen spec) describe
// the same simulation and must not be encoded; every leaf must still be
// covered by at least one base configuration.
func TestKeyEncodingCoversEveryField(t *testing.T) {
	covered := make(map[string]bool)
	for baseName, build := range coverageBases() {
		base := build()
		baseKey, err := Fingerprint(base)
		if err != nil {
			t.Fatalf("%s: base config: %v", baseName, err)
		}
		basePrefix, err := forkPrefixKey(base)
		if err != nil {
			t.Fatal(err)
		}
		var leaves []leaf
		collectLeaves(reflect.ValueOf(&base).Elem(), nil, "Config", &leaves)
		if len(leaves) < 300 {
			t.Fatalf("%s: only %d leaves reached; base config not fully populated", baseName, len(leaves))
		}
		for _, lf := range leaves {
			if _, ok := covered[lf.name]; !ok {
				covered[lf.name] = false
			}
			nPerturb := len(perturbations(navigate(reflect.ValueOf(&base).Elem(), lf.steps)))
			for p := 0; p < nPerturb; p++ {
				cfg := build()
				perturbations(navigate(reflect.ValueOf(&cfg).Elem(), lf.steps))[p]()
				norm, err := cfg.Normalized()
				if err != nil || reflect.DeepEqual(norm, base) {
					continue // invalid, or absorbed by normalization
				}
				covered[lf.name] = true
				key, err := Fingerprint(cfg)
				if err != nil {
					t.Fatalf("%s: %s: %v", baseName, lf.name, err)
				}
				if key == baseKey {
					t.Errorf("%s: perturbing %s leaves Fingerprint unchanged", baseName, lf.name)
				}
				prefix, err := forkPrefixKey(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if isHorizon := lf.name == "Config.Horizon"; (prefix == basePrefix) != isHorizon {
					t.Errorf("%s: perturbing %s: forkPrefixKey changed = %v, want %v",
						baseName, lf.name, prefix != basePrefix, !isHorizon)
				}
			}
		}
	}
	for name, ok := range covered {
		if !ok {
			t.Errorf("no base configuration exercises %s: no perturbation survives normalization", name)
		}
	}
}

// TestKeyEncodingCoversRuleTable covers rules.Table's unexported state,
// which the reflective walk cannot reach: tables differing in one row's
// condition, one row's target, or only the default key differently;
// differing only in rule Source text (diagnostics) they key equally.
func TestKeyEncodingCoversRuleTable(t *testing.T) {
	withTable := func(tab *rules.Table) string {
		t.Helper()
		cfg := coverageBases()["dpm"]()
		cfg.LEM.Table = tab
		key, err := Fingerprint(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return key
	}
	base := withTable(rules.Table1())

	cond := rules.Table1Rules()
	cond[4].Temp = rules.T(thermal.LowTemp)
	target := rules.Table1Rules()
	target[6].Target = acpi.ON2
	dropped := rules.Table1Rules()[1:]
	source := rules.Table1Rules()
	source[0].Source = "renamed"
	batt := rules.Table1Rules()
	batt[0].Battery = rules.B(battery.Empty, battery.Low)

	for name, tab := range map[string]*rules.Table{
		"condition": rules.NewTable(cond).WithDefault(acpi.ON3),
		"target":    rules.NewTable(target).WithDefault(acpi.ON3),
		"battery":   rules.NewTable(batt).WithDefault(acpi.ON3),
		"row count": rules.NewTable(dropped).WithDefault(acpi.ON3),
		"default":   rules.NewTable(rules.Table1Rules()).WithDefault(acpi.ON2),
		"nodefault": rules.NewTable(rules.Table1Rules()),
	} {
		if withTable(tab) == base {
			t.Errorf("table differing in %s keys like Table1", name)
		}
	}
	if withTable(rules.NewTable(source).WithDefault(acpi.ON3)) != base {
		t.Error("rule Source text changed the key")
	}
}

// TestEncodedSizeHintCovers pins the single-allocation encoding: the size
// hint covers the fully populated configurations' encodings.
func TestEncodedSizeHintCovers(t *testing.T) {
	for name, build := range coverageBases() {
		cfg := build()
		hint := encodedSizeHint(&cfg)
		e := newKeyEncoder(domainConfig, hint)
		e.config(&cfg)
		if len(e.buf) > hint {
			t.Errorf("%s: encoding is %d bytes, size hint %d", name, len(e.buf), hint)
		}
	}
}
