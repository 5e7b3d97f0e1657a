package engine_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"testing"

	"godpm/internal/battery"
	"godpm/internal/engine"
	"godpm/internal/experiments"
	"godpm/internal/lem"
	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/stats"
)

// fmtResultDigest is the fmt-based ResultDigest the strconv one replaced,
// kept verbatim as the reference: the two must agree on every Result.

func field(w io.Writer, name string, v any) {
	fmt.Fprintf(w, "|%s=%+v", name, v)
}

func fmtResultDigest(r *soc.Result) string {
	h := sha256.New()
	io.WriteString(h, "godpm-result-v3")
	field(h, "energy", r.EnergyJ)
	field(h, "deltas", r.Deltas)
	field(h, "stopreason", r.StopReason)
	writeFloatMap(h, "energyby", r.EnergyByIP)
	field(h, "busenergy", r.BusEnergyJ)
	field(h, "avgtemp", r.AvgTempC)
	field(h, "peaktemp", r.PeakTempC)
	field(h, "ambient", r.AmbientC)
	field(h, "duration", r.Duration)
	field(h, "completed", r.Completed)
	field(h, "tasks", r.TasksDone)
	field(h, "cycles", r.Cycles)
	field(h, "soc", r.FinalSoC)
	field(h, "batt", int(r.FinalBatteryStatus))
	field(h, "gemev", r.GEMEvaluations)
	field(h, "fan", r.FanSwitches)
	field(h, "busocc", r.BusOccupancy)
	if r.Ledger != nil {
		field(h, "nledger", r.Ledger.Len())
		for _, rec := range r.Ledger.Records() {
			field(h, "l", rec)
		}
	}
	names := make([]string, 0, len(r.LEMStats))
	for name := range r.LEMStats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := r.LEMStats[name]
		writeIntMap(h, name+".on", s.OnDecisions)
		writeIntMap(h, name+".sleep", s.SleepEntries)
		field(h, name+".park", s.ParkEvents)
		field(h, name+".parked", s.ParkedTime)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeFloatMap(w io.Writer, name string, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		field(w, name+"."+k, m[k])
	}
}

func writeIntMap(w io.Writer, name string, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		field(w, name+"."+k, m[k])
	}
}

// catalogResults runs every paper scenario, its always-on baseline and
// every extension at the given task count.
func catalogResults(t testing.TB, tasks int) map[string]*soc.Result {
	t.Helper()
	tn := experiments.DefaultTuning()
	tn.NumTasks = tasks
	cfgs := map[string]soc.Config{}
	for _, s := range experiments.All(tn) {
		cfgs[s.ID] = s.Config
		cfgs[s.ID+"/base"] = experiments.Baseline(s)
	}
	for _, s := range experiments.Extensions(tn) {
		cfgs[s.ID] = s.Config
	}
	out := make(map[string]*soc.Result, len(cfgs))
	for id, cfg := range cfgs {
		r, err := soc.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out[id] = r
	}
	return out
}

// TestResultDigestMatchesReference: the strconv digest equals the fmt
// reference on every catalog run at three workload sizes.
func TestResultDigestMatchesReference(t *testing.T) {
	for _, tasks := range []int{5, 30, 120} {
		for id, r := range catalogResults(t, tasks) {
			if got, want := engine.ResultDigest(r), fmtResultDigest(r); got != want {
				t.Errorf("%s at %d tasks: digest %s, reference %s", id, tasks, got, want)
			}
		}
	}
}

// ledgerOf builds a ledger holding recs.
func ledgerOf(recs ...stats.TaskRecord) *stats.Ledger {
	l := &stats.Ledger{}
	for _, r := range recs {
		l.Add(r)
	}
	return l
}

// TestResultDigestEdgeCases covers the values the catalog never
// produces: absent and empty collections, a stop reason, the "stayed ON"
// sleep key "", negative, fractional and huge times, and non-finite
// floats.
func TestResultDigestEdgeCases(t *testing.T) {
	huge := sim.Time(1<<53 + 7)
	long := strings.Repeat("x", 3000)
	cases := map[string]*soc.Result{
		"zero":         {},
		"empty-ledger": {Ledger: &stats.Ledger{}, EnergyByIP: map[string]float64{}, LEMStats: map[string]lem.Stats{}},
		"empty-lem": {LEMStats: map[string]lem.Stats{
			"cpu": {OnDecisions: map[string]int{}, SleepEntries: map[string]int{}},
		}},
		"stopped": {StopReason: "battery-empty", Completed: false, Duration: 1500 * sim.Us},
		"stayed-on": {LEMStats: map[string]lem.Stats{
			"cpu": {OnDecisions: map[string]int{"on-hi": 3}, SleepEntries: map[string]int{"": 4, "SL2": 1}, ParkEvents: 2, ParkedTime: 1234567},
			"":    {SleepEntries: map[string]int{"": 1}},
		}},
		"times": {Duration: -3 * sim.Sec, Ledger: ledgerOf(
			stats.TaskRecord{IP: "cpu", TaskID: -1, Request: -1500, Start: 2500 * sim.Ns, Done: 7 * sim.Ms / 3, State: ""},
			stats.TaskRecord{IP: "", Request: huge, Start: sim.MaxTime, Done: math.MinInt64, State: "on lo"},
			stats.TaskRecord{IP: "dsp", TaskID: 9, Request: 1, Start: 999, Done: sim.Sec + 1},
		)},
		"floats": {
			EnergyJ: math.NaN(), BusEnergyJ: math.Inf(1), AvgTempC: math.Inf(-1), PeakTempC: math.Copysign(0, -1),
			AmbientC: 1e21, Cycles: 1e-7, FinalSoC: 5e-324, BusOccupancy: math.MaxFloat64,
			EnergyByIP: map[string]float64{"a": math.NaN(), "b": -1.5, "": 123456789.125},
		},
		// Longer than the digester's buffer: the text must stream intact.
		"long-strings": {StopReason: long, EnergyByIP: map[string]float64{long: 1},
			Ledger: ledgerOf(stats.TaskRecord{IP: long, State: long}, stats.TaskRecord{IP: long[:700]})},
		"ints": {
			Deltas: math.MaxUint64, TasksDone: math.MinInt, GEMEvaluations: math.MaxInt, FanSwitches: -7,
			FinalBatteryStatus: battery.Status(-2), Completed: true,
		},
	}
	for name, r := range cases {
		if got, want := engine.ResultDigest(r), fmtResultDigest(r); got != want {
			t.Errorf("%s: digest %s, reference %s", name, got, want)
		}
	}
}

// fuzzReader hands out values from fuzz bytes, zeros once they run out.
type fuzzReader struct{ b []byte }

func (f *fuzzReader) u64() uint64 {
	var buf [8]byte
	n := copy(buf[:], f.b)
	f.b = f.b[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

func (f *fuzzReader) byte() byte {
	if len(f.b) == 0 {
		return 0
	}
	c := f.b[0]
	f.b = f.b[1:]
	return c
}

func (f *fuzzReader) f64() float64    { return math.Float64frombits(f.u64()) }
func (f *fuzzReader) int() int        { return int(f.u64()) }
func (f *fuzzReader) time() sim.Time  { return sim.Time(f.u64()) }
func (f *fuzzReader) count(n int) int { return int(f.byte()) % (n + 1) }

func (f *fuzzReader) str() string {
	n := int(f.byte())
	if n > len(f.b) {
		n = len(f.b)
	}
	s := string(f.b[:n])
	f.b = f.b[n:]
	return s
}

func (f *fuzzReader) intMap() map[string]int {
	if f.byte()&1 == 0 {
		return nil
	}
	m := map[string]int{}
	for i := f.count(4); i > 0; i-- {
		m[f.str()] = f.int()
	}
	return m
}

// fuzzResult decodes a Result from fuzz bytes, every field reachable.
func fuzzResult(data []byte) *soc.Result {
	f := &fuzzReader{b: data}
	r := &soc.Result{
		EnergyJ: f.f64(), BusEnergyJ: f.f64(), AvgTempC: f.f64(), PeakTempC: f.f64(), AmbientC: f.f64(),
		Duration: f.time(), Completed: f.byte()&1 == 1, TasksDone: f.int(), StopReason: f.str(),
		Deltas: f.u64(), Cycles: f.f64(), FinalSoC: f.f64(), FinalBatteryStatus: battery.Status(f.int()),
		GEMEvaluations: f.int(), FanSwitches: f.int(), BusOccupancy: f.f64(),
	}
	if f.byte()&1 == 1 {
		r.EnergyByIP = map[string]float64{}
		for i := f.count(4); i > 0; i-- {
			r.EnergyByIP[f.str()] = f.f64()
		}
	}
	if f.byte()&1 == 1 {
		r.Ledger = &stats.Ledger{}
		for i := f.count(8); i > 0; i-- {
			r.Ledger.Add(stats.TaskRecord{IP: f.str(), TaskID: f.int(), Request: f.time(),
				Start: f.time(), Done: f.time(), State: f.str()})
		}
	}
	if f.byte()&1 == 1 {
		r.LEMStats = map[string]lem.Stats{}
		for i := f.count(3); i > 0; i-- {
			r.LEMStats[f.str()] = lem.Stats{OnDecisions: f.intMap(), SleepEntries: f.intMap(),
				ParkEvents: f.int(), ParkedTime: f.time()}
		}
	}
	return r
}

// FuzzResultDigest compares the strconv digest with the fmt reference on
// Results decoded from arbitrary bytes.
func FuzzResultDigest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xf8\x7f 0.5s |l={IP:x} \x01\x03\x05"))
	seed := make([]byte, 0, 512)
	for i := 0; i < 512; i++ {
		seed = append(seed, byte(i*37+11))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzResult(data)
		if got, want := engine.ResultDigest(r), fmtResultDigest(r); got != want {
			t.Fatalf("digest %s, reference %s for %+v", got, want, r)
		}
	})
}

// raceEnabled reports a -race build (see race_test.go).
var raceEnabled bool

// TestResultDigestAllocs bounds the digest's allocations on a 120-task
// Table 2 result, and NewRecord's at its JSON marshal plus the digest
// (and the record itself): neither depends on the host, so a formatting
// path that allocates per field cannot come back unnoticed.
func TestResultDigestAllocs(t *testing.T) {
	tn := experiments.DefaultTuning()
	tn.NumTasks = 120
	for _, s := range experiments.All(tn) {
		r, err := soc.Run(s.Config)
		if err != nil {
			t.Fatal(err)
		}
		digest := testing.AllocsPerRun(20, func() { engine.ResultDigest(r) })
		if digest > 8 {
			t.Errorf("%s: ResultDigest takes %.0f allocs (ledger %d rows), want ≤ 8", s.ID, digest, r.Ledger.Len())
		}
		if raceEnabled {
			continue // the marshal's count is not stable under -race
		}
		canon := *r
		marshal := testing.AllocsPerRun(20, func() { json.Marshal(&canon) })
		record := testing.AllocsPerRun(20, func() { engine.NewRecord("k", r) })
		// The record struct and its copy of the result.
		const own = 2
		if record > marshal+digest+own {
			t.Errorf("%s: NewRecord takes %.0f allocs, want ≤ %.0f (marshal %.0f + digest %.0f + %d)",
				s.ID, record, marshal+digest+own, marshal, digest, own)
		}
	}
}
