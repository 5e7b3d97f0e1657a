package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"godpm"
)

// TestResolveConfig pins request resolution: paper IDs resolve
// case-insensitively, extension IDs exactly and case-folded, tasks and
// seed tune the scenario, an inline config passes through, and unknown
// IDs, mixed forms, over-limit task counts and inline power profiles that
// fail validation are refused.
func TestResolveConfig(t *testing.T) {
	tuned := func(tasks int, seed int64) godpm.Tuning {
		tn := godpm.DefaultTuning()
		if tasks > 0 {
			tn.NumTasks = tasks
		}
		if seed != 0 {
			tn.Seed = seed
		}
		return tn
	}
	paper := func(id string, tasks int, seed int64) godpm.Config {
		s, err := godpm.ScenarioByID(id, tuned(tasks, seed))
		if err != nil {
			t.Fatal(err)
		}
		return s.Config
	}
	ext := func(id string, tasks int, seed int64) godpm.Config {
		s, err := godpm.ExtensionByID(id, tuned(tasks, seed))
		if err != nil {
			t.Fatal(err)
		}
		return s.Config
	}
	inline := paper("A2", 4, 5)
	genInline := godpm.Config{IPs: []godpm.IPSpec{{
		Name: "g", Gen: godpm.ClosedGen(godpm.HighActivity(1, maxTasks+1)),
	}}}
	// An inline config whose profile stops the ON4 clock.
	stalledInline, err := paper("A2", 4, 5).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	stalled := *stalledInline.IPs[0].Profile
	stalled.On[3].FreqHz = 0
	stalledInline.IPs[0].Profile = &stalled

	for _, tc := range []struct {
		name    string
		req     simulateRequest
		wantID  string
		wantCfg godpm.Config
		wantErr string
	}{
		{"paper exact", simulateRequest{Scenario: "A1", Tasks: 6, Seed: 2}, "A1", paper("A1", 6, 2), ""},
		{"paper lower-case", simulateRequest{Scenario: "a3", Tasks: 6}, "A3", paper("A3", 6, 0), ""},
		{"paper B lower-case", simulateRequest{Scenario: "b", Tasks: 5, Seed: 9}, "B", paper("B", 5, 9), ""},
		{"default tuning", simulateRequest{Scenario: "C"}, "C", paper("C", 0, 0), ""},
		{"extension exact", simulateRequest{Scenario: "B-perip", Tasks: 4}, "B-perip", ext("B-perip", 4, 0), ""},
		{"extension folded", simulateRequest{Scenario: "b-perip", Tasks: 4}, "B-perip", ext("B-perip", 4, 0), ""},
		{"extension upper", simulateRequest{Scenario: "B-OPENLOOP", Tasks: 3, Seed: 8}, "B-openloop", ext("B-openloop", 3, 8), ""},
		{"extension mixed", simulateRequest{Scenario: "a1-REGULATOR", Tasks: 3}, "A1-regulator", ext("A1-regulator", 3, 0), ""},
		{"inline config", simulateRequest{Config: &inline}, "inline", inline, ""},
		{"tasks at limit", simulateRequest{Scenario: "A1", Tasks: maxTasks}, "A1", paper("A1", maxTasks, 0), ""},
		{"unknown", simulateRequest{Scenario: "Z9"}, "", godpm.Config{}, "unknown scenario"},
		{"unknown extension-like", simulateRequest{Scenario: "b-perip2"}, "", godpm.Config{}, "unknown scenario"},
		{"missing", simulateRequest{}, "", godpm.Config{}, "missing scenario"},
		{"scenario and config", simulateRequest{Scenario: "A1", Config: &inline}, "", godpm.Config{}, "not both"},
		{"tasks over limit", simulateRequest{Scenario: "A1", Tasks: maxTasks + 1}, "", godpm.Config{}, "exceeds the limit"},
		{"tasks over limit, unknown id", simulateRequest{Scenario: "Z9", Tasks: 1_000_000}, "", godpm.Config{}, "exceeds the limit"},
		{"inline generator over limit", simulateRequest{Config: &genInline}, "", godpm.Config{}, "exceeds the limit"},
		{"inline profile with a zero ON4 clock", simulateRequest{Config: &stalledInline}, "", godpm.Config{}, "ON4 FreqHz"},
	} {
		cfg, id, err := resolveConfig(tc.req)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if id != tc.wantID {
			t.Errorf("%s: id = %q, want %q", tc.name, id, tc.wantID)
		}
		if !reflect.DeepEqual(cfg, tc.wantCfg) {
			t.Errorf("%s: resolved config differs from the catalog's", tc.name)
		}
	}
}

// TestOversizedTasksRefusedBeforeGeneration is the hostile-request
// check: a small body asking for a million tasks per IP is refused with
// a 4xx naming the limit, and the refusal generates nothing — it
// allocates a few kilobytes, where generating the workload would cost
// hundreds of megabytes — and reaches neither admission nor the engine.
func TestOversizedTasksRefusedBeforeGeneration(t *testing.T) {
	s, err := newServer(serverOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	for _, tc := range []struct {
		path, body string
		handle     http.HandlerFunc
	}{
		{"/v1/simulate", `{"scenario":"A1","tasks":1000000}`, s.handleSimulate},
		{"/v1/simulate", `{"scenario":"B-openloop","tasks":1000000}`, s.handleSimulate},
		{"/v1/tournament", `{"tasks":1000000,"seeds":[1]}`, s.handleTournament},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := httptest.NewRecorder()
		tc.handle(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		runtime.ReadMemStats(&after)

		if w.Code < 400 || w.Code >= 500 {
			t.Fatalf("%s %s: status %d, want 4xx", tc.path, tc.body, w.Code)
		}
		if msg := w.Body.String(); !strings.Contains(msg, fmt.Sprint(maxTasks)) {
			t.Errorf("%s: refusal %q does not name the limit", tc.path, msg)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s %s: refusal allocated %d bytes; the workload was generated", tc.path, tc.body, alloc)
		}
	}
	if st := s.eng.Stats(); st.Misses != 0 || st.Runs != 0 || st.Hits != 0 {
		t.Fatalf("refused requests reached the engine: %+v", st)
	}
	if n := s.requests.Load(); n != 0 {
		t.Fatalf("refused requests counted as admitted: %d", n)
	}
}

// FuzzResolveRequest drives arbitrary bodies through the simulate
// handler's decode and resolution. A request resolves to an error or to
// a config whose key is stable across calls; a named scenario's config
// always keys; a task count above maxTasks is always refused; nothing
// panics.
func FuzzResolveRequest(f *testing.F) {
	for _, body := range []string{
		`{"scenario":"A1","tasks":3}`,
		`{"scenario":"b-perip","tasks":2,"seed":9}`,
		`{"scenario":"B-OPENLOOP","tasks":2,"seed":-4}`,
		`{"scenario":"Z9"}`,
		`{"scenario":"A1","tasks":1000000}`,
		`{"scenario":"c","tasks":-3}`,
		`{"config":{"IPs":[{"Name":"x","Sequence":[{"Task":{"ID":1,"Instructions":1000,"Priority":1},"IdleAfter":5}]}]}}`,
		`{"config":{"IPs":[{"Gen":{"Kind":"closed","Closed":{"NumTasks":3,"MeanInstructions":1000}}}],"Policy":"timeout"}}`,
		`{"config":{"IPs":[{"Gen":{"Kind":"mmpp","MMPP":{"NumTasks":2,"MeanInstructions":9,"BusyRate":5,"QuietRate":1,"MeanBusy":7,"MeanQuiet":7}}}],"UseGEM":true}}`,
		`{`,
		`[]`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req simulateRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
		if err := decodeJSON(httptest.NewRecorder(), r, &req); err != nil {
			return
		}
		cfg, _, err := resolveConfig(req)
		if req.Tasks > maxTasks && err == nil {
			t.Fatalf("tasks %d above the limit resolved", req.Tasks)
		}
		if err != nil {
			return
		}
		k1, err := godpm.Fingerprint(cfg)
		if err != nil {
			if req.Config == nil {
				t.Fatalf("scenario %q resolved to an unkeyable config: %v", req.Scenario, err)
			}
			return // an invalid inline config is refused at keying
		}
		k2, err := godpm.Fingerprint(cfg)
		if err != nil || k2 != k1 {
			t.Fatalf("key unstable: %s then %s (%v)", k1, k2, err)
		}
	})
}
