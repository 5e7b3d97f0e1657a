package experiments

import (
	"reflect"
	"testing"

	"godpm/internal/sim"
)

// TestLookupMatchesCatalog pins the one-scenario lookups to the catalogs:
// for every paper and extension ID, at two tunings, ByID/ExtensionByID
// build exactly the scenario All/Extensions list under that ID —
// same workloads, same configuration, same description.
func TestLookupMatchesCatalog(t *testing.T) {
	tunings := []Tuning{
		DefaultTuning(),
		{NumTasks: 17, Seed: 90017, BusWords: 8, Horizon: 20 * sim.Sec},
	}
	for _, tn := range tunings {
		for _, want := range All(tn) {
			got, err := ByID(want.ID, tn)
			if err != nil {
				t.Fatalf("ByID(%s): %v", want.ID, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("ByID(%s) at %+v differs from All's entry", want.ID, tn)
			}
		}
		exts := Extensions(tn)
		ids := ExtensionIDs()
		if len(ids) != len(exts) {
			t.Fatalf("ExtensionIDs lists %d IDs, Extensions %d scenarios", len(ids), len(exts))
		}
		for i, want := range exts {
			if ids[i] != want.ID {
				t.Errorf("ExtensionIDs()[%d] = %q, Extensions has %q", i, ids[i], want.ID)
			}
			got, err := ExtensionByID(want.ID, tn)
			if err != nil {
				t.Fatalf("ExtensionByID(%s): %v", want.ID, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("ExtensionByID(%s) at %+v differs from Extensions' entry", want.ID, tn)
			}
		}
	}
	for _, id := range []string{"", "a1", "Z9", "B-perip"} {
		if _, err := ByID(id, DefaultTuning()); err == nil {
			t.Errorf("ByID(%q) accepted", id)
		}
	}
	for _, id := range []string{"", "b-perip", "A1", "nope"} {
		if _, err := ExtensionByID(id, DefaultTuning()); err == nil {
			t.Errorf("ExtensionByID(%q) accepted", id)
		}
	}
}
