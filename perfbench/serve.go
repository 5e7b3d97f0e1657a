package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"godpm"
)

// scenarioIDs are all the named scenarios dpmserve resolves: the six
// Table 2 experiments and the three extensions.
var scenarioIDs = []string{"A1", "A2", "A3", "A4", "B", "C", "B-perip", "B-openloop", "A1-regulator"}

const (
	// connections bounds the load generator: one process, at most nproc
	// connections on the 2-core host the benchmark was built on.
	connections = 2
	// setupReps is how many times a serve run starts dpmserve; setup_s is
	// the median.
	setupReps = 21
	// hotTasks are the two task counts of the warmed keys: fingerprint
	// and resolve cost grow with the input size.
	hotSmallTasks, hotLargeTasks = 20, 120
	// freshTasks is the task count of serve-mix's never-repeating keys.
	freshTasks = 30
)

// simKey is one /v1/simulate request body.
type simKey struct {
	Scenario string `json:"scenario"`
	Tasks    int    `json:"tasks"`
	Seed     int64  `json:"seed"`
}

func (k simKey) body() []byte {
	b, _ := json.Marshal(k) // three scalar fields: cannot fail
	return b
}

// hotKeys returns every scenario at both hot task counts, each with its
// own seed drawn from rng.
func hotKeys(rng *rand.Rand) []simKey {
	var keys []simKey
	for _, tasks := range []int{hotSmallTasks, hotLargeTasks} {
		for _, id := range scenarioIDs {
			keys = append(keys, simKey{id, tasks, drawSeed(rng)})
		}
	}
	return keys
}

// drawSeed returns a workload seed dpmserve will not replace with its
// default (it treats 0 as "unset").
func drawSeed(rng *rand.Rand) int64 { return 1 + rng.Int64N(1<<40) }

// resolve builds a request's configuration exactly as dpmserve's handler
// does: a case-insensitive paper scenario first, then an extension.
func resolve(k simKey) (godpm.Config, error) {
	t := godpm.DefaultTuning()
	if k.Tasks > 0 {
		t.NumTasks = k.Tasks
	}
	if k.Seed != 0 {
		t.Seed = k.Seed
	}
	if sc, err := godpm.ScenarioByID(strings.ToUpper(k.Scenario), t); err == nil {
		return sc.Config, nil
	}
	sc, err := godpm.ExtensionByID(k.Scenario, t)
	return sc.Config, err
}

// expectation is what a correct server returns for one key.
type expectation struct {
	key, digest string
	cycles      float64
}

// expectAll computes every key's fingerprint, record digest and
// simulated cycles in-process, on nproc goroutines.
func expectAll(keys map[simKey]bool) (map[simKey]expectation, error) {
	list := make([]simKey, 0, len(keys))
	for k := range keys {
		list = append(list, k)
	}
	out := make([]expectation, len(list))
	errs := make([]error, len(list))
	parallel(len(list), func(i int) {
		out[i], errs[i] = expect(list[i])
	})
	m := make(map[simKey]expectation, len(list))
	for i, k := range list {
		if errs[i] != nil {
			return nil, fmt.Errorf("expected value of %+v: %w", k, errs[i])
		}
		m[k] = out[i]
	}
	return m, nil
}

func expect(k simKey) (expectation, error) {
	cfg, err := resolve(k)
	if err != nil {
		return expectation{}, err
	}
	key, err := godpm.Fingerprint(cfg)
	if err != nil {
		return expectation{}, err
	}
	res, err := godpm.Run(cfg)
	if err != nil {
		return expectation{}, err
	}
	rec, err := godpm.NewCacheRecord(key, res)
	if err != nil {
		return expectation{}, err
	}
	return expectation{key: key, digest: rec.Digest(), cycles: res.Cycles}, nil
}

// parallel runs f(0..n-1) on runtime.NumCPU() goroutines and waits.
func parallel(n int, f func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// dpmserve is one running server subprocess.
type dpmserve struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{} // closed when the stderr reader hits EOF
}

var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

// startServer execs dpmserve on an ephemeral port and returns once
// /healthz answers 200, with the time from exec to that answer.
func startServer(bin string, args []string, client *http.Client) (*dpmserve, time.Duration, error) {
	if bin == "" {
		return nil, 0, errors.New("no dpmserve binary (run through perfbench/run.sh)")
	}
	t0 := time.Now()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-drain-grace", "0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start dpmserve: %w", err)
	}
	s := &dpmserve{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case s.base = <-addr:
	case <-s.drained:
		s.kill()
		return nil, 0, errors.New("dpmserve exited before listening")
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, 0, errors.New("dpmserve did not report its address within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, fmt.Errorf("dpmserve at %s not healthy within 30s", s.base)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// kill stops the process at once and waits for it and its reader.
func (s *dpmserve) kill() {
	_ = s.cmd.Process.Kill()
	<-s.drained
	_ = s.cmd.Wait()
}

// stop asks for a graceful drain and waits; a server that has not
// exited after 15s is killed.
func (s *dpmserve) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	exited := make(chan error, 1)
	go func() {
		<-s.drained
		exited <- s.cmd.Wait()
	}()
	select {
	case err := <-exited:
		return err
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-exited
		return errors.New("dpmserve did not drain within 15s")
	}
}

// launch starts dpmserve setupReps times, keeping the last instance, and
// returns it with the median exec-to-healthy time.
func launch(bin string, args []string, client *http.Client) (*dpmserve, float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		s, d, err := startServer(bin, args, client)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, d.Seconds())
		if i == setupReps-1 {
			client.CloseIdleConnections()
			return s, median(setups), nil
		}
		s.kill()
		client.CloseIdleConnections()
	}
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     connections,
			MaxIdleConnsPerHost: connections,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}
}

// reply is one simulate request as the client saw it. Times are offsets
// from the phase start.
type reply struct {
	key        simKey
	sent, done time.Duration
	status     int
	err        error
	hit        bool
	fp, digest string
}

// latencyMs is the client latency.
func (r reply) latencyMs() float64 { return float64(r.done-r.sent) / 1e6 }

func post(client *http.Client, base string, body []byte) (status int, payload []byte, err error) {
	resp, err := client.Post(base+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	payload, err = io.ReadAll(resp.Body)
	return resp.StatusCode, payload, err
}

// send issues one request and fills the reply's outcome fields.
func send(client *http.Client, base string, start time.Time, r *reply) {
	r.sent = time.Since(start)
	status, payload, err := post(client, base, r.key.body())
	r.done = time.Since(start)
	r.status, r.err = status, err
	if err != nil || status != http.StatusOK {
		return
	}
	var body struct {
		CacheHit bool   `json:"cache_hit"`
		Key      string `json:"key"`
		Digest   string `json:"digest"`
	}
	if err := json.Unmarshal(payload, &body); err != nil {
		r.err = fmt.Errorf("decode response: %w", err)
		return
	}
	r.hit, r.fp, r.digest = body.CacheHit, body.Key, body.Digest
}

// closedLoop runs `connections` clients that each send their next
// request as soon as the previous one completes, until d has elapsed.
// next picks each key from the connection's own PCG stream of seed.
func closedLoop(client *http.Client, base string, next func(*rand.Rand) simKey, seed, stream uint64, d time.Duration) []reply {
	start := time.Now()
	per := make([][]reply, connections)
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, stream+uint64(c)))
			for time.Since(start) < d {
				r := reply{key: next(rng)}
				send(client, base, start, &r)
				per[c] = append(per[c], r)
			}
		}(c)
	}
	wg.Wait()
	return bySend(per)
}

// uniform draws keys uniformly from keys.
func uniform(keys []simKey) func(*rand.Rand) simKey {
	return func(rng *rand.Rand) simKey { return keys[rng.IntN(len(keys))] }
}

// bySend merges per-connection replies into send order.
func bySend(per [][]reply) []reply {
	var all []reply
	for _, p := range per {
		all = append(all, p...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].sent < all[j].sent })
	return all
}

// sequential sends keys one after another (warm-up traffic).
func sequential(client *http.Client, base string, keys []simKey) []reply {
	start := time.Now()
	out := make([]reply, len(keys))
	for i, k := range keys {
		out[i] = reply{key: k}
		send(client, base, start, &out[i])
	}
	return out
}

// statsz is the part of dpmserve's /statsz the benchmark reads.
type statsz struct {
	Hits       int64                    `json:"hits"`
	Misses     int64                    `json:"misses"`
	Runs       int64                    `json:"runs"`
	Deduped    int64                    `json:"deduped"`
	Forked     int64                    `json:"forked"`
	Evictions  int64                    `json:"evictions"`
	RunLatency *godpm.Latency           `json:"run_latency"`
	Latency    map[string]godpm.Latency `json:"latency"`
}

func getStatsz(client *http.Client, base string) (statsz, error) {
	var st statsz
	resp, err := client.Get(base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statsz: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (s statsz) simulateHist() godpm.HistogramSnapshot {
	return s.Latency[godpm.JournalEndpointSimulate].Hist
}

func (s statsz) runHist() godpm.HistogramSnapshot {
	if s.RunLatency == nil {
		return godpm.HistogramSnapshot{}
	}
	return s.RunLatency.Hist
}

// histDelta subtracts a cumulative sketch's earlier snapshot, leaving the
// observations recorded in between. Max stays the later snapshot's (an
// upper bound for the interval).
func histDelta(after, before godpm.HistogramSnapshot) godpm.HistogramSnapshot {
	prev := make(map[int32]int64, len(before.Bucket))
	for i, b := range before.Bucket {
		prev[b] = before.N[i]
	}
	d := godpm.HistogramSnapshot{Max: after.Max, Sum: after.Sum - before.Sum}
	for i, b := range after.Bucket {
		if n := after.N[i] - prev[b]; n > 0 {
			d.Bucket = append(d.Bucket, b)
			d.N = append(d.N, n)
			d.Count += n
		}
	}
	return d
}

// servePhase is one serve workload's measured traffic and the server
// counters around it.
type servePhase struct {
	setupS        float64
	warm, timed   []reply
	wall          time.Duration // timed phase, until the last reply
	before, after statsz
	rssMB         float64
	cpu           time.Duration // dpmserve CPU time over the timed phase
}

// serveRun starts dpmserve, runs the warm-up traffic, then the timed
// traffic between two /statsz snapshots, and stops the server.
func serveRun(cfg runConfig, args []string, warm, timed func(*http.Client, string) []reply) (*servePhase, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	srv, setup, err := launch(cfg.dpmserve, args, client)
	if err != nil {
		return nil, err
	}
	ph := &servePhase{setupS: setup}
	ph.warm = warm(client, srv.base)
	pid := strconv.Itoa(srv.cmd.Process.Pid)
	cpu0, err := cpuTime(pid)
	if err == nil {
		ph.before, err = getStatsz(client, srv.base)
	}
	if err != nil {
		srv.kill()
		return nil, err
	}
	start := time.Now()
	ph.timed = timed(client, srv.base)
	ph.wall = time.Since(start)
	cpu1, err := cpuTime(pid)
	ph.cpu = cpu1 - cpu0
	if err == nil {
		ph.after, err = getStatsz(client, srv.base)
	}
	if err == nil {
		ph.rssMB, err = vmHWM(pid)
	}
	if err != nil {
		srv.kill()
		return nil, err
	}
	client.CloseIdleConnections()
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stop dpmserve: %w", err)
	}
	return ph, nil
}

// checkReplies verifies every reply against the in-process expectation
// and counts the timed phase's failures: transport errors, non-200
// answers (a refused 429 included — never retried), and key or digest
// mismatches. A warm-up failure is a failed check.
func (ph *servePhase) checkReplies(o *outcome, want map[simKey]expectation) (refused int) {
	bad := func(r reply) string {
		switch {
		case r.err != nil:
			return r.err.Error()
		case r.status != http.StatusOK:
			return fmt.Sprintf("status %d", r.status)
		case r.fp != want[r.key].key:
			return fmt.Sprintf("key %s, want %s", r.fp, want[r.key].key)
		case r.digest != want[r.key].digest:
			return fmt.Sprintf("digest %s, want %s", r.digest, want[r.key].digest)
		}
		return ""
	}
	for _, r := range ph.warm {
		if why := bad(r); why != "" {
			o.fail("warm-up request %+v: %s", r.key, why)
		}
	}
	o.attempted = len(ph.timed)
	for _, r := range ph.timed {
		if r.status == http.StatusTooManyRequests {
			refused++
		}
		if why := bad(r); why != "" {
			o.failed++
			if o.failed <= 5 {
				o.fail("request %+v: %s", r.key, why)
			}
		}
	}
	return refused
}

// serveMetrics fills every metric both serve workloads measure the same
// way from the HTTP phase.
func (ph *servePhase) serveMetrics(o *outcome, want map[simKey]expectation, refused int, seconds float64) {
	var lat, hitLat, missLat []float64
	var simCycles float64
	win := newWindowed(time.Duration(seconds * float64(time.Second)))
	ok := 0
	for _, r := range ph.timed {
		if r.err != nil || r.status != http.StatusOK || r.digest != want[r.key].digest {
			continue
		}
		ok++
		win.add(r.sent, r.latencyMs())
		lat = append(lat, r.latencyMs())
		if r.hit {
			hitLat = append(hitLat, r.latencyMs())
		} else {
			simCycles += want[r.key].cycles
			missLat = append(missLat, r.latencyMs())
		}
	}
	wall := ph.wall.Seconds()
	st := ph.after
	st.Hits -= ph.before.Hits
	st.Misses -= ph.before.Misses
	st.Runs -= ph.before.Runs
	st.Deduped -= ph.before.Deduped
	st.Forked -= ph.before.Forked
	st.Evictions -= ph.before.Evictions
	handler := histDelta(ph.after.simulateHist(), ph.before.simulateHist())
	runs := histDelta(ph.after.runHist(), ph.before.runHist())

	o.set("setup_s", ph.setupS)
	o.set("req_per_s", win.rate())
	o.set("p50_ms", win.quantile(0.50))
	o.set("p99_ms", win.quantile(0.99))
	o.set("cpu_ms_per_req", float64(ph.cpu)/1e6/float64(max(ok, 1)))
	o.set("peak_rss_mb", ph.rssMB)

	o.set("jobs_per_s", float64(st.Hits+st.Misses)/wall)
	o.set("sim_kcycle_per_s", simCycles/1e3/wall)
	o.set("error_frac", float64(o.failed)/float64(max(o.attempted, 1)))
	o.set("hit_p50_ms", median(hitLat))
	o.set("hit_p99_ms", quantile(hitLat, 0.99))
	o.set("miss_p50_ms", median(missLat))
	o.set("miss_p90_ms", quantile(missLat, 0.90))
	o.set("loadgen.sent", float64(len(ph.timed)))
	o.set("loadgen.offered_per_s", float64(len(ph.timed))/wall)
	o.set("dpmserve.handler_p50_ms", float64(handler.Quantile(0.50))/1e3)
	o.set("dpmserve.handler_p99_ms", float64(handler.Quantile(0.99))/1e3)
	o.set("dpmserve.transport_ms", median(lat)-float64(handler.Quantile(0.50))/1e3)
	o.set("dpmserve.refused", float64(refused))
	o.set("engine.hits", float64(st.Hits))
	o.set("engine.misses", float64(st.Misses))
	o.set("engine.runs", float64(st.Runs))
	o.set("engine.deduped", float64(st.Deduped))
	o.set("engine.evictions", float64(st.Evictions))
	o.set("engine.forked", float64(st.Forked))
	o.set("engine.hit_ratio", float64(st.Hits)/float64(max(st.Hits+st.Misses, 1)))
	o.set("engine.run_p50_ms", float64(runs.Quantile(0.50))/1e3)
}

// warmKeys lists every hot key three times: a miss, then two hits.
func warmKeys(hot []simKey) []simKey {
	return append(append(append([]simKey{}, hot...), hot...), hot...)
}

// keySet collects the distinct keys of the given request lists.
func keySet(lists ...[]simKey) map[simKey]bool {
	m := map[simKey]bool{}
	for _, l := range lists {
		for _, k := range l {
			m[k] = true
		}
	}
	return m
}

// runServeHot: closed loop over warmed keys; every timed request is a hit.
func runServeHot(cfg runConfig) (*outcome, error) {
	rng := rand.New(rand.NewPCG(cfg.seed, 1))
	hot := hotKeys(rng)
	d := time.Duration(cfg.seconds * float64(time.Second))
	ph, err := serveRun(cfg, []string{"-workers", strconv.Itoa(connections)},
		func(c *http.Client, base string) []reply {
			// Each key misses once and then hits twice, so each record's
			// pre-encoded response exists; a short closed loop then
			// settles the connections and both runtimes.
			rs := sequential(c, base, warmKeys(hot))
			return append(rs, closedLoop(c, base, uniform(hot), cfg.seed, 100, d/10)...)
		},
		func(c *http.Client, base string) []reply {
			return closedLoop(c, base, uniform(hot), cfg.seed, 200, d)
		})
	if err != nil {
		return nil, err
	}
	want, err := expectAll(keySet(hot))
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: map[string]float64{}}
	refused := ph.checkReplies(o, want)
	ph.serveMetrics(o, want, refused, cfg.seconds)
	if m := ph.after.Misses - ph.before.Misses; m != 0 {
		o.fail("shape: serve-hot timed phase recorded %d engine misses, want 0", m)
	}
	if cfg.trace {
		if err := traceServe(cfg, o, ph, 0); err != nil {
			return nil, err
		}
	}
	return o, nil
}

const (
	// mixHotShare is the share of serve-mix requests drawn from the
	// warmed keys; the rest are fresh keys that miss.
	mixHotShare = 0.8
	// mixCacheEntries caps dpmserve's LRU between the hot-set size (18)
	// and the fresh keys of a run (thousands), so fresh puts evict.
	mixCacheEntries = 256
)

// freshKeys hands out keys that never repeat: the scenarios in turn (so
// every run misses on the same scenario mix), freshTasks tasks, and a new
// seed from the workload seed's stream each.
type freshKeys struct {
	mu   sync.Mutex
	rng  *rand.Rand
	used map[simKey]bool
	keys []simKey
}

func (f *freshKeys) next() simKey {
	f.mu.Lock()
	defer f.mu.Unlock()
	id := scenarioIDs[len(f.keys)%len(scenarioIDs)]
	k := simKey{id, freshTasks, drawSeed(f.rng)}
	for f.used[k] {
		k.Seed = drawSeed(f.rng)
	}
	f.used[k] = true
	f.keys = append(f.keys, k)
	return k
}

// runServeMix: closed loop; hits and fresh misses share one work-gate unit.
func runServeMix(cfg runConfig) (*outcome, error) {
	rng := rand.New(rand.NewPCG(cfg.seed, 2))
	hot := hotKeys(rng)
	fresh := &freshKeys{rng: rand.New(rand.NewPCG(cfg.seed, 3)), used: keySet(hot)}
	mix := func(rng *rand.Rand) simKey {
		if rng.Float64() < mixHotShare {
			return hot[rng.IntN(len(hot))]
		}
		return fresh.next()
	}
	// One work-gate unit for two connections: a hit waits behind a miss,
	// because the handler takes the gate before probing the cache.
	args := []string{"-workers", "1", "-cache-entries", strconv.Itoa(mixCacheEntries), "-max-inflight", "64"}
	d := time.Duration(cfg.seconds * float64(time.Second))
	ph, err := serveRun(cfg, args,
		func(c *http.Client, base string) []reply { return sequential(c, base, warmKeys(hot)) },
		func(c *http.Client, base string) []reply { return closedLoop(c, base, mix, cfg.seed, 200, d) })
	if err != nil {
		return nil, err
	}
	want, err := expectAll(keySet(hot, fresh.keys))
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: map[string]float64{}}
	refused := ph.checkReplies(o, want)
	ph.serveMetrics(o, want, refused, cfg.seconds)
	// Every fresh key is a miss; so is nothing else.
	hotFP := map[string]bool{}
	for _, k := range hot {
		hotFP[want[k].key] = true
	}
	freshFP := map[string]bool{}
	for _, k := range fresh.keys {
		if fp := want[k].key; !hotFP[fp] {
			freshFP[fp] = true
		}
	}
	if m := ph.after.Misses - ph.before.Misses; m != int64(len(freshFP)) {
		o.fail("shape: serve-mix recorded %d engine misses, want one per fresh key (%d)", m, len(freshFP))
	}
	// Every distinct key was stored once, so an LRU of mixCacheEntries
	// must have evicted at least the overflow.
	overflow := int64(len(hot) + len(freshFP) - mixCacheEntries)
	if ev := ph.after.Evictions - ph.before.Evictions; overflow > 0 && ev < overflow {
		o.fail("shape: serve-mix evicted %d entries, want at least %d; the cache cap no longer bites", ev, overflow)
	}
	if cfg.trace {
		if err := traceServe(cfg, o, ph, mixCacheEntries); err != nil {
			return nil, err
		}
	}
	return o, nil
}
