// Command perfbench is godpm's end-to-end and per-layer benchmark. One
// invocation runs one workload for a fixed time and prints every metric
// by name with its unit; the last line of standard output is a JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	serve-hot    closed loop, 2 connections, warmed named-scenario keys: every
//	             timed request is a cache hit served by a dpmserve subprocess
//	serve-mix    closed loop, 2 connections: 80% warmed keys, 20%
//	             never-repeating keys that miss, evict and queue at the gate
//	batch-sweep  in-process engine passes over the Table 2 plan and the
//	             built-in studies, fresh cache per pass
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// repeats the same measured phase and then replays the identical request
// or job sequence in-process through the public godpm functions, one span
// per layer call, and reports the per-layer metrics. README.md defines
// every metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported quantity; the registries below must match
// BENCHMARK.json; checkSpec compares them before anything runs.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"setup_s", "s"},
	{"req_per_s", "req/s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metric{
	{"p99_ms", "ms"},
	{"error_frac", "ratio"},
	{"jobs_per_s", "jobs/s"},
	{"sim_kcycle_per_s", "Kcycle/s"},
	{"hit_p50_ms", "ms"},
	{"hit_p99_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"miss_p90_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.offered_per_s", "req/s"},
	{"dpmserve.handler_p50_ms", "ms"},
	{"dpmserve.handler_p99_ms", "ms"},
	{"dpmserve.transport_ms", "ms"},
	{"dpmserve.refused", "count"},
	{"dpmserve.http_us", "us"},
	{"dpmserve.decode_us", "us"},
	{"dpmserve.respond_us", "us"},
	{"serve.unattributed_us", "us"},
	{"experiments.resolve_us", "us"},
	{"engine.fingerprint_us", "us"},
	{"engine.probe_us", "us"},
	{"engine.record_decode_us", "us"},
	{"engine.record_encode_us", "us"},
	{"engine.put_us", "us"},
	{"engine.record_bytes", "bytes"},
	{"engine.hits", "count"},
	{"engine.misses", "count"},
	{"engine.runs", "count"},
	{"engine.deduped", "count"},
	{"engine.evictions", "count"},
	{"engine.forked", "count"},
	{"engine.hit_ratio", "ratio"},
	{"engine.run_p50_ms", "ms"},
	{"soc.run_us", "us"},
	{"soc.ns_per_delta", "ns"},
	{"sim.deltas", "count"},
	{"sim.cycles", "count"},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	workload string
	root     string // godpm source tree; spans are written under it
	dpmserve string // built dpmserve binary
	seed     uint64
	seconds  float64
	trace    bool
}

// outcome is what a workload hands back: its metrics (every registry
// entry for the mode, including the ones set to 0 as not applicable),
// the timed-phase request/job accounting, and any failed check.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// notApplicable marks layers the workload never reaches; README.md lists
// which these are per workload.
func (o *outcome) notApplicable(names ...string) {
	for _, n := range names {
		o.metrics[n] = 0
	}
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"serve-hot":   runServeHot,
	"serve-mix":   runServeMix,
	"batch-sweep": runBatchSweep,
}

func main() {
	var (
		workload = flag.String("workload", "", "serve-hot, serve-mix or batch-sweep")
		seed     = flag.Uint64("seed", 1, "workload seed: every request, key and config derives from it")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 = add the in-process traced replay and report per-layer metrics")
		root     = flag.String("root", ".", "godpm source tree (holds BENCHMARK.json)")
		server   = flag.String("dpmserve", "", "dpmserve binary for the serve workloads")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload serve-hot|serve-mix|batch-sweep, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}
	if err := checkSpec(filepath.Join(*root, "BENCHMARK.json"), *workload); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	cfg := runConfig{workload: *workload, root: *root, dpmserve: *server, seed: *seed, seconds: *seconds, trace: *trace == 1}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, *workload, want, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if len(out.problems) > 0 || out.failed > 0 {
		os.Exit(1)
	}
}

// report prints one "name value unit" line per metric, any failed
// checks, and the JSON result line last.
func report(f *os.File, workload string, want []metric, out *outcome) error {
	w := bufio.NewWriter(f)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	for _, m := range want {
		v, ok := out.metrics[m.name]
		if !ok {
			return fmt.Errorf("%s did not measure %s", workload, m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s measured %s = %v", workload, m.name, v)
		}
		metrics[m.name] = value{v, m.unit}
		fmt.Fprintf(w, "%-26s %14s %s\n", m.name, strconv.FormatFloat(v, 'g', 8, 64), m.unit)
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(out.problems) == 0 && out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	w.Write(line)
	w.WriteByte('\n')
	return w.Flush()
}

// checkSpec refuses to run when BENCHMARK.json and the registries above
// disagree, so the committed contract cannot drift from what is measured.
func checkSpec(path, workload string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read benchmark spec: %w", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Contains(names, workload) {
		return fmt.Errorf("%s does not list workload %q", path, workload)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s lists %d %s metrics, perfbench measures %d", path, len(got), kind, len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				return fmt.Errorf("%s %s metric %d is %s/%s, perfbench measures %s/%s",
					path, kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
		return nil
	}
	return errors.Join(same("end_to_end", spec.EndToEnd, endToEnd), same("per_layer", spec.PerLayer, perLayer))
}

// windows is how many equal slices of the timed phase the headline rate
// and latency quantiles are computed over; each is reported as the
// median across the slices, so one burst of host noise moves it less.
const windows = 5

// windowed sorts timed-phase samples into windows by when they started.
type windowed struct {
	span  time.Duration // length of one window
	count []int
	busy  []time.Duration // measured time per window; span when unset
	ms    [][]float64
}

func newWindowed(total time.Duration) *windowed {
	return &windowed{span: total / windows, count: make([]int, windows),
		busy: make([]time.Duration, windows), ms: make([][]float64, windows)}
}

func (w *windowed) slot(at time.Duration) int { return min(int(at/w.span), windows-1) }

// add books one completed unit of work started at offset at, with latency ms.
func (w *windowed) add(at time.Duration, ms float64) {
	i := w.slot(at)
	w.count[i]++
	w.ms[i] = append(w.ms[i], ms)
}

// addBusy books measured working time to the window holding offset at.
func (w *windowed) addBusy(at, d time.Duration) { w.busy[w.slot(at)] += d }

// rate is the median over windows of completed work per second.
func (w *windowed) rate() float64 {
	rs := make([]float64, 0, windows)
	for i, n := range w.count {
		d := w.busy[i]
		if d == 0 {
			d = w.span
		}
		rs = append(rs, float64(n)/d.Seconds())
	}
	return median(rs)
}

// quantile is the median over windows of each window's p-quantile.
// Adjacent windows are merged until each has at least ten samples beyond
// the quantile (down to one window for the whole phase).
func (w *windowed) quantile(p float64) float64 {
	total := 0
	for _, xs := range w.ms {
		total += len(xs)
	}
	groups := min(max(int(float64(total)*(1-p)/10), 1), windows)
	merged := make([][]float64, groups)
	for i, xs := range w.ms {
		g := i * groups / windows
		merged[g] = append(merged[g], xs...)
	}
	qs := make([]float64, 0, groups)
	for _, xs := range merged {
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, p))
		}
	}
	return median(qs)
}

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). Empty input returns 0.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime reads a process's user+system CPU time from /proc/<pid>/stat
// ("self" for this process). Unlike wall time it excludes time the host
// took the CPU away, so per-request CPU cost is steady on a shared host.
func cpuTime(pid string) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, fmt.Errorf("cpu time: %w", err)
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15, in clock ticks.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("cpu time: short /proc/%s/stat", pid)
	}
	var ticks int64
	for _, v := range f[11:13] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("cpu time: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; Linux fixes
// it at 100 for user space on every architecture Go supports.
const clockTicks = 100

// vmHWM reads a process's peak resident set size in MB from
// /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/%s/status", pid)
}
