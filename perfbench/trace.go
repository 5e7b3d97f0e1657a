package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"godpm"
)

// reconcileTolerance bounds the stage reconciliation: the sum of the
// per-stage medians must lie within this share of the enclosing span's
// median, or the breakdown has lost (or double-counted) a stage. The
// HTTP request, a superset of the in-process one, may not come out
// faster than it by more than the same share.
const reconcileTolerance = 0.2

// span is one timed call. Offsets are from the tracer's start; parent is
// the enclosing span's index (-1 for a root) and req the request or job
// the span belongs to.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	req        int
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].end = time.Since(t.t0) }

func (s span) us() float64 { return float64(s.end-s.start) / 1e3 }

// selfTimes returns each span's duration minus the part its children
// cover (children of one span never overlap: replay is serial).
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// stageUs returns the durations (µs) of the spans called name whose
// request passes keep (nil keeps all).
func (t *tracer) stageUs(name string, keep func(req int) bool) []float64 {
	var xs []float64
	for _, s := range t.spans {
		if s.name == name && (keep == nil || keep(s.req)) {
			xs = append(xs, s.us())
		}
	}
	return xs
}

// medianUs is the median duration of a stage over all its spans; 0 when
// the replay never reached it.
func (t *tracer) medianUs(name string) float64 { return median(t.stageUs(name, nil)) }

// reconcile compares the median of the parent spans (over requests kept)
// with the sum of its stages' medians over the same requests, and
// returns both.
func (t *tracer) reconcile(parent string, stages []string, keep func(req int) bool) (parentUs, stagesUs float64) {
	parentUs = median(t.stageUs(parent, keep))
	for _, st := range stages {
		stagesUs += median(t.stageUs(st, keep))
	}
	return parentUs, stagesUs
}

// write dumps every span as one JSON object per line, self time included.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := t.selfTimes()
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"self_ns":%d,"parent":%d,"req":%d}`+"\n",
			i, s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), self[i].Nanoseconds(), s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func tracePath(cfg runConfig) string {
	return filepath.Join(cfg.root, ".bench_build", "perfbench",
		"trace-"+cfg.workload+"-seed"+strconv.FormatUint(cfg.seed, 10)+".ndjson")
}

// simCounts accumulates the kernel work of replayed runs. exact decides
// which requests' runs enter sim.deltas and sim.cycles: only those whose
// inputs a seed fixes, so the counts repeat exactly.
type simCounts struct {
	exact       func(req int) bool
	runNs       time.Duration
	deltas      uint64
	exactDeltas uint64
	exactCycles float64
	recordBytes []float64
}

func (c *simCounts) add(req int, res *godpm.Result, d time.Duration) {
	c.runNs += d
	c.deltas += res.Deltas
	if c.exact(req) {
		c.exactDeltas += res.Deltas
		c.exactCycles += res.Cycles
	}
}

func (c *simCounts) metrics(o *outcome) {
	o.set("sim.deltas", float64(c.exactDeltas))
	o.set("sim.cycles", c.exactCycles)
	o.set("soc.ns_per_delta", float64(c.runNs.Nanoseconds())/math.Max(float64(c.deltas), 1))
	o.set("engine.record_bytes", median(c.recordBytes))
}

// wireRequest mirrors dpmserve's simulate request body.
type wireRequest struct {
	Scenario string        `json:"scenario,omitempty"`
	Tasks    int           `json:"tasks,omitempty"`
	Seed     int64         `json:"seed,omitempty"`
	Config   *godpm.Config `json:"config,omitempty"`
}

// wireTail mirrors the cached tail of dpmserve's simulate response.
type wireTail struct {
	Key       string  `json:"key"`
	EnergyJ   float64 `json:"energy_j"`
	DurationS float64 `json:"duration_s"`
	AvgTempC  float64 `json:"avg_temp_c"`
	PeakTempC float64 `json:"peak_temp_c"`
	TasksDone int     `json:"tasks_done"`
	Completed bool    `json:"completed"`
	FinalSoC  float64 `json:"final_soc"`
	Digest    string  `json:"digest"`
}

// respond builds the response bytes the way dpmserve does: a record's
// tail is marshalled on its first serve and kept on the record.
func respond(rec *godpm.CacheRecord, key string, res *godpm.Result, id string, hit bool) ([]byte, error) {
	frag := rec.Aux()
	if frag == nil {
		tail, err := json.Marshal(wireTail{key, res.EnergyJ, res.Duration.Seconds(), res.AvgTempC,
			res.PeakTempC, res.TasksDone, res.Completed, res.FinalSoC, rec.Digest()})
		if err != nil {
			return nil, err
		}
		frag = tail[1:]
		rec.SetAux(frag)
	}
	buf := make([]byte, 0, 32+len(id)+len(frag))
	buf = append(buf, `{"id":`...)
	buf = strconv.AppendQuote(buf, id)
	buf = append(buf, `,"cache_hit":`...)
	buf = strconv.AppendBool(buf, hit)
	buf = append(buf, ',')
	buf = append(buf, frag...)
	return append(buf, '\n'), nil
}

// traceServe replays the serve run's requests (warm-up, then the timed
// phase in send order) in-process and serially, in the handler's stage
// order, against a cache of the server's size (0 = default), and fills
// the per-layer metrics. Admission and the work gate are uncontended in
// a serial replay and are not spanned; their waits show up in
// dpmserve.http_us.
func traceServe(cfg runConfig, o *outcome, ph *servePhase, cacheEntries int) error {
	cache := godpm.NewLRUCache(godpm.LRUOptions{MaxEntries: cacheEntries})
	tr := newTracer()
	// The warm-up sequence is fixed by the seed; how many timed requests
	// (and fresh keys) a closed loop sends is not.
	sc := simCounts{exact: func(req int) bool { return req < len(ph.warm) }}
	reqs := append(append([]reply{}, ph.warm...), ph.timed...)
	hit := make([]bool, len(reqs))
	for i, r := range reqs {
		req := tr.begin("serve.request", -1, i)

		s := tr.begin("dpmserve.decode", req, i)
		var wr wireRequest
		dec := json.NewDecoder(bytes.NewReader(r.key.body()))
		dec.DisallowUnknownFields()
		err := dec.Decode(&wr)
		tr.end(s)
		if err != nil {
			return err
		}

		s = tr.begin("experiments.resolve", req, i)
		cfgI, err := resolve(simKey{wr.Scenario, wr.Tasks, wr.Seed})
		tr.end(s)
		if err != nil {
			return err
		}

		s = tr.begin("engine.fingerprint", req, i)
		key, err := godpm.Fingerprint(cfgI)
		tr.end(s)
		if err != nil {
			return err
		}

		s = tr.begin("engine.probe", req, i)
		rec, ok := cache.Get(key)
		tr.end(s)
		var res *godpm.Result
		if ok {
			s = tr.begin("engine.record_decode", req, i)
			res, err = rec.Result()
			tr.end(s)
		} else {
			res, rec, err = missPath(tr, cache, &sc, req, i, key, cfgI)
		}
		if err != nil {
			return err
		}
		hit[i] = ok

		s = tr.begin("dpmserve.respond", req, i)
		_, err = respond(rec, key, res, wr.Scenario+"#"+strconv.Itoa(i), ok)
		tr.end(s)
		if err != nil {
			return err
		}
		tr.end(req)
	}
	if err := tr.write(tracePath(cfg)); err != nil {
		return err
	}

	for _, name := range []string{"experiments.resolve", "engine.fingerprint", "engine.probe",
		"engine.record_decode", "engine.record_encode", "engine.put"} {
		o.set(name+"_us", tr.medianUs(name))
	}
	o.set("dpmserve.decode_us", tr.medianUs("dpmserve.decode"))
	o.set("dpmserve.respond_us", tr.medianUs("dpmserve.respond"))
	o.set("soc.run_us", tr.medianUs("soc.run"))
	sc.metrics(o)

	// Reconcile the hit path of the timed phase: in-process request
	// median against its stages, and against the HTTP hit median.
	timedHit := func(req int) bool { return req >= len(ph.warm) && hit[req] }
	reqUs, stagesUs := tr.reconcile("serve.request", []string{"dpmserve.decode", "experiments.resolve",
		"engine.fingerprint", "engine.probe", "engine.record_decode", "dpmserve.respond"}, timedHit)
	unattributed := reqUs - stagesUs
	httpUs := o.metrics["hit_p50_ms"]*1e3 - reqUs
	o.set("serve.unattributed_us", unattributed)
	o.set("dpmserve.http_us", httpUs)
	fmt.Printf("reconcile: in-process hit request median %.1fus = stage medians %.1fus + unattributed %.1fus; HTTP hit p50 adds %.1fus\n",
		reqUs, stagesUs, unattributed, httpUs)
	if math.Abs(unattributed) > reconcileTolerance*reqUs {
		o.fail("reconcile: stage medians sum to %.1fus against a %.1fus request median (tolerance %.0f%%)",
			stagesUs, reqUs, 100*reconcileTolerance)
	}
	if httpUs < -reconcileTolerance*reqUs {
		o.fail("reconcile: HTTP hit p50 is %.1fus below the in-process request median %.1fus", -httpUs, reqUs)
	}
	return nil
}

// missPath runs the engine's miss stages under parent: simulate, build
// the record, store it.
func missPath(tr *tracer, cache *godpm.LRUCache, sc *simCounts, parent, req int, key string, cfg godpm.Config) (*godpm.Result, *godpm.CacheRecord, error) {
	s := tr.begin("soc.run", parent, req)
	t0 := time.Now()
	res, err := godpm.RunWith(context.Background(), cfg, godpm.RunOptions{})
	d := time.Since(t0)
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	sc.add(req, res, d)

	s = tr.begin("engine.record_encode", parent, req)
	rec, err := godpm.NewCacheRecord(key, res)
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	sc.recordBytes = append(sc.recordBytes, float64(rec.RawLen()))

	s = tr.begin("engine.put", parent, req)
	err = cache.Put(key, rec)
	tr.end(s)
	return res, rec, err
}
