// Result digest pin: the full engine.ResultDigest of every catalog run —
// the Table 2 scenarios and their always-on baselines, the extensions and
// every ablation variant — plus the run shapes whose result assembly
// differs from a bare run: a bus-occupancy GEM (its final partial sample
// re-evaluates the GEM), an observed run and an early-stopped run. The
// digest covers every deterministic Result field (energies, temperatures,
// the ledger, LEM and GEM counters, the delta-cycle checksum), so any
// change to how a run is simulated or how its Result is assembled shows
// up here. Like the kernel goldens, the exact values are gated to amd64.
package godpm_test

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"godpm/internal/engine"
	"godpm/internal/experiments"
	"godpm/internal/soc"
)

// digestCase is one pinned run: a configuration and its run options.
type digestCase struct {
	cfg  soc.Config
	opts soc.RunOptions
}

// digestCases lists the pinned runs at a small workload size.
func digestCases() map[string]digestCase {
	tn := experiments.DefaultTuning()
	tn.NumTasks = 12
	out := make(map[string]digestCase)
	for _, s := range experiments.All(tn) {
		out[s.ID] = digestCase{cfg: s.Config}
		out[s.ID+"/base"] = digestCase{cfg: experiments.Baseline(s)}
	}
	for _, s := range experiments.Extensions(tn) {
		out[s.ID] = digestCase{cfg: s.Config}
	}
	for _, ab := range experiments.Ablations(tn) {
		for _, v := range ab.Variants {
			out["ablation/"+ab.Name+"/"+v.Label] = digestCase{cfg: v.Config}
		}
	}
	busGEM := experiments.B(tn).Config
	busGEM.UseGEM = true
	busGEM.GEM.BusOccupancyLimit = 0.05
	out["B/bus-gem"] = digestCase{cfg: busGEM}
	out["A1/observed"] = digestCase{
		cfg:  experiments.A1(tn).Config,
		opts: soc.RunOptions{Observers: []soc.Observer{soc.NopObserver{}}},
	}
	out["B/stop-energy"] = digestCase{
		cfg:  experiments.B(tn).Config,
		opts: soc.RunOptions{StopWhen: []soc.StopCondition{soc.StopOnEnergyBudget(0.05)}},
	}
	return out
}

var (
	digestRunsOnce sync.Once
	digestRuns     map[string]*soc.Result
	digestRunsErr  error
)

// digestResults runs every digest case once per test binary and shares the
// results between the tests that read them (treat them as immutable).
func digestResults(t *testing.T) map[string]*soc.Result {
	t.Helper()
	digestRunsOnce.Do(func() {
		digestRuns = make(map[string]*soc.Result)
		for name, c := range digestCases() {
			res, err := soc.RunWith(context.Background(), c.cfg, c.opts)
			if err != nil {
				digestRunsErr = err
				return
			}
			digestRuns[name] = res
		}
	})
	if digestRunsErr != nil {
		t.Fatal(digestRunsErr)
	}
	return digestRuns
}

// resultDigestGoldens were captured on linux/amd64 before RunWith's result
// assembly was folded into the session snapshot.
var resultDigestGoldens = map[string]string{
	"A1":                          "201315c7a660ae8b0b750ac945a696c090cee3ffc0cdae8ccac322d191f81f8a",
	"A1-regulator":                "63484262c7f6ebb07b1f76044061d84e8ad724e0f4985fdae5c09c3aabfd8726",
	"A1/base":                     "2c984e39a21213962cd944b57b3e996f94e12dce3c935aa8f6837afcd51ce2a5",
	"A1/observed":                 "201315c7a660ae8b0b750ac945a696c090cee3ffc0cdae8ccac322d191f81f8a",
	"A2":                          "b7e5568b9a64915f1f8d085dbb2a6b3b7dc2c2dda38cd82d0aa84328d4842593",
	"A2/base":                     "2b309d687d742defcbe0a90222ea1987e49d8d7713c8ec44e10c5dac29aa1b24",
	"A3":                          "d1f53df5291292e9911e70b82c9250b832c2d0ce7f7fa6f1f1c82936e14d24bf",
	"A3/base":                     "2e079b2f95530c3800d4b50e18a7bb7bbdeb74223778b3054b84c5db27195ce6",
	"A4":                          "d4871bb8fa4677e8f51e5e1647c6254d1c90c593274cd73ff5e773198529a167",
	"A4/base":                     "a5c73d996829e62ee5da801d26b818bd4461da92241485835c87d916d26ef6df",
	"B":                           "1b2ef8d495cfde6b34a845aee8481aee97a275461acfcfff116aebe95215ccd6",
	"B-openloop":                  "1e3e3e13a4201714dfcbf45b7be4d1ec75796fd02cc387d4b7a3d99f845ec459",
	"B-perip":                     "8f93f379d5cdffe607905592100fe1c417b9f5c538d88c8c6590c16fb24455ab",
	"B/base":                      "2201b9856fee730cafe265c7351290a726975a87f088eafc354a117c10e46acc",
	"B/bus-gem":                   "1cede774e57ae82a84b1ddc730efd5ed5528b6000551492657bcd241120a3536",
	"B/stop-energy":               "fccc633e7f0405069f5bef9ce0977fdfbe52ba9c641e83034ab0ddebc522e3bc",
	"C":                           "ce967308d05bbf42d01a1e4b7b87a41cf1f80cfe8134e3b45335efa6509f2b47",
	"C/base":                      "961193cca190c13f0cf688b245ee9f9b411eb99d44a7a969ef349ce4239cd1a9",
	"ablation/battery/kibam":      "1b2ef8d495cfde6b34a845aee8481aee97a275461acfcfff116aebe95215ccd6",
	"ablation/battery/linear":     "33b4da9a42acc017e14e43a06922e06ec397abfbaf3c23abe6f365cbe70287a6",
	"ablation/breakeven/gated":    "201315c7a660ae8b0b750ac945a696c090cee3ffc0cdae8ccac322d191f81f8a",
	"ablation/breakeven/ungated":  "5a7770b2cc5e08bc10954d6b0205c43df2db721d9bbf03548ec8a361fa3c6316",
	"ablation/gem/with":           "1b2ef8d495cfde6b34a845aee8481aee97a275461acfcfff116aebe95215ccd6",
	"ablation/gem/without":        "75c92cc92d686870731f30ea2af25268e544e20c253c11a10b60c9e55c384951",
	"ablation/predictor/adaptive": "852a011113e9d0b61f9510c2c8dbd17642db2b2d652ded80498dee8152304951",
	"ablation/predictor/ewma":     "201315c7a660ae8b0b750ac945a696c090cee3ffc0cdae8ccac322d191f81f8a",
	"ablation/predictor/last":     "15fa3726076ee713c0108616340e2895fd05d61cd8744b0fca5b8fb6cb1e8757",
	"ablation/predictor/perfect":  "32611df5925b4aa83870523ae43a16aaf93e8411d29e33d2ff9266272e36c7fb",
	"ablation/predictor/quantile": "2fb683c9a1d893b622fd3c83de6576e38026509fb126234d9aac513efc6fd825",
}

// TestResultDigestGoldens pins every case's full result digest.
func TestResultDigestGoldens(t *testing.T) {
	results := digestResults(t)
	if len(results) != len(resultDigestGoldens) {
		t.Errorf("%d digest cases, %d goldens", len(results), len(resultDigestGoldens))
	}
	if got := results["B/stop-energy"].StopReason; got == "" {
		t.Error("B/stop-energy: the energy budget never stopped the run")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden comparison pinned to amd64 (GOARCH=%s may fuse FMA)", runtime.GOARCH)
	}
	for name, res := range results {
		want, ok := resultDigestGoldens[name]
		if !ok {
			t.Errorf("%s: no golden recorded", name)
			continue
		}
		if got := engine.ResultDigest(res); got != want {
			t.Errorf("%s: ResultDigest = %s, want %s", name, got, want)
		}
	}
}

// TestRecordRoundTripCatalog: every pinned result survives the cache
// record container — NewRecord, Encode, DecodeRecord, Result — with its
// full digest unchanged.
func TestRecordRoundTripCatalog(t *testing.T) {
	for name, res := range digestResults(t) {
		rec, err := engine.NewRecord(name, res)
		if err != nil {
			t.Fatalf("%s: NewRecord: %v", name, err)
		}
		enc, err := rec.Encode()
		if err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		dec, err := engine.DecodeRecord(enc)
		if err != nil {
			t.Fatalf("%s: DecodeRecord: %v", name, err)
		}
		got, err := dec.Result()
		if err != nil {
			t.Fatalf("%s: Result: %v", name, err)
		}
		if want := engine.ResultDigest(res); engine.ResultDigest(got) != want {
			t.Errorf("%s: round trip changed the digest", name)
		}
	}
}
