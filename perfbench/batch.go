package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"

	"godpm"
)

const (
	// studyTasks sizes the built-in studies like the Table 2 default
	// tuning (120 tasks per IP).
	studyTasks = 120
	// tracedPasses is how many of the timed passes the traced run
	// replays; a fixed count keeps sim.deltas and sim.cycles exact for a
	// seed.
	tracedPasses = 3
)

// batchPlan is one pass: the Table 2 plan (six scenarios, each with its
// always-on baseline) followed by every built-in study, horizon study
// included, all generated from seed.
func batchPlan(seed int64) godpm.Plan {
	t := godpm.DefaultTuning()
	t.Seed = seed
	plan := godpm.ScenarioPlan(godpm.Scenarios(t))
	studies := godpm.Studies(seed, studyTasks)
	names := make([]string, 0, len(studies))
	for n := range studies {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		plan.Jobs = append(plan.Jobs, studies[n].Plan().Jobs...)
	}
	return plan
}

// pass is what the timed phase keeps of one Engine.Run: enough to
// regenerate its plan and check every job.
type pass struct {
	seed    int64
	digests []string // per job, "" for a failed job
}

// runBatchSweep: in-process engine passes with workers = nproc and a
// fresh in-memory cache each, until the run's time is spent in Run.
func runBatchSweep(cfg runConfig) (*outcome, error) {
	rng := rand.New(rand.NewPCG(cfg.seed, 3))
	d := time.Duration(cfg.seconds * float64(time.Second))
	ctx := context.Background()
	o := &outcome{metrics: map[string]float64{}}

	var (
		passes         []pass
		setups, hitLat []float64
		missLat        []float64
		win            = newWindowed(d)
		runWall, cpu   time.Duration
		cycles         float64
		st             godpm.EngineStats
		runHist        godpm.HistogramSnapshot
	)
	for runWall < d {
		seed := drawSeed(rng)
		t0 := time.Now()
		plan := batchPlan(seed)
		// A job's latency runs from a worker picking it up to its result
		// (the engine serialises these callbacks).
		started := make([]time.Time, len(plan.Jobs))
		done := make([]float64, len(plan.Jobs))
		eng := godpm.NewEngine(godpm.EngineOptions{
			Workers:  runtime.NumCPU(),
			Cache:    godpm.NewLRUCache(godpm.LRUOptions{}),
			OnStart:  func(i int, _ godpm.Job) { started[i] = time.Now() },
			OnResult: func(i int, _ godpm.JobResult) { done[i] = float64(time.Since(started[i])) / 1e6 },
		})
		setups = append(setups, time.Since(t0).Seconds())
		cpu0, err := cpuTime("self")
		if err != nil {
			return nil, err
		}
		runStart := time.Now()
		results, _ := eng.Run(ctx, plan)
		at := runWall
		runWall += time.Since(runStart)
		win.addBusy(at, runWall-at)
		cpu1, err := cpuTime("self")
		if err != nil {
			return nil, err
		}
		cpu += cpu1 - cpu0

		p := pass{seed: seed, digests: make([]string, len(results))}
		for i, jr := range results {
			o.attempted++
			if jr.Err != nil {
				o.failed++
				o.fail("pass seed %d job %s: %v", seed, jr.Job.ID, jr.Err)
				continue
			}
			p.digests[i] = godpm.ResultDigest(jr.Result)
			cycles += jr.Result.Cycles
			win.add(at, done[i])
			if jr.CacheHit {
				hitLat = append(hitLat, done[i])
			} else {
				missLat = append(missLat, done[i])
			}
		}
		passes = append(passes, p)
		es := eng.Stats()
		st.Hits += es.Hits
		st.Misses += es.Misses
		st.Runs += es.Runs
		st.Deduped += es.Deduped
		st.Forked += es.Forked
		st.Evictions += es.Evictions
		if es.RunLatency != nil {
			merged, err := runHist.Merge(es.RunLatency.Hist)
			if err != nil {
				return nil, err
			}
			runHist = merged
		}
	}
	rss, err := vmHWM("self")
	if err != nil {
		return nil, err
	}
	if err := checkPasses(o, passes); err != nil {
		return nil, err
	}
	if st.Forked == 0 {
		o.fail("shape: batch-sweep forked no jobs; sweep warm-start is no longer exercised")
	}

	wall := runWall.Seconds()
	o.set("setup_s", median(setups))
	o.set("req_per_s", win.rate())
	o.set("p50_ms", win.quantile(0.50))
	o.set("p99_ms", win.quantile(0.99))
	o.set("cpu_ms_per_req", float64(cpu)/1e6/float64(max(o.attempted-o.failed, 1)))
	o.set("peak_rss_mb", rss)

	o.set("jobs_per_s", float64(o.attempted-o.failed)/wall)
	o.set("sim_kcycle_per_s", cycles/1e3/wall)
	o.set("error_frac", float64(o.failed)/float64(max(o.attempted, 1)))
	o.set("hit_p50_ms", median(hitLat))
	o.set("hit_p99_ms", quantile(hitLat, 0.99))
	o.set("miss_p50_ms", median(missLat))
	o.set("miss_p90_ms", quantile(missLat, 0.90))
	o.set("engine.hits", float64(st.Hits))
	o.set("engine.misses", float64(st.Misses))
	o.set("engine.runs", float64(st.Runs))
	o.set("engine.deduped", float64(st.Deduped))
	o.set("engine.evictions", float64(st.Evictions))
	o.set("engine.forked", float64(st.Forked))
	o.set("engine.hit_ratio", float64(st.Hits)/float64(max(st.Hits+st.Misses, 1)))
	o.set("engine.run_p50_ms", float64(runHist.Quantile(0.5))/1e3)
	o.notApplicable("loadgen.sent", "loadgen.offered_per_s",
		"dpmserve.handler_p50_ms", "dpmserve.handler_p99_ms", "dpmserve.transport_ms",
		"dpmserve.refused", "dpmserve.http_us", "dpmserve.decode_us", "dpmserve.respond_us")

	if cfg.trace {
		if err := traceBatch(cfg, o, passes[:min(tracedPasses, len(passes))]); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// checkPasses compares every job's digest with a solo RunWith of its
// configuration (one solo run per distinct fingerprint). A mismatch is a
// failed job.
func checkPasses(o *outcome, passes []pass) error {
	type job struct {
		j    godpm.Job
		key  string
		pass int
		idx  int
	}
	var jobs []job
	solo := map[string]int{} // fingerprint → index into keys
	var keys []job
	for pi, p := range passes {
		for i, j := range batchPlan(p.seed).Jobs {
			if p.digests[i] == "" {
				continue
			}
			key, err := godpm.Fingerprint(j.Config)
			if err != nil {
				return err
			}
			jb := job{j: j, key: key, pass: pi, idx: i}
			jobs = append(jobs, jb)
			if _, ok := solo[key]; !ok {
				solo[key] = len(keys)
				keys = append(keys, jb)
			}
		}
	}
	digests := make([]string, len(keys))
	errs := make([]error, len(keys))
	parallel(len(keys), func(i int) {
		res, err := godpm.RunWith(context.Background(), keys[i].j.Config, keys[i].j.Options)
		if err != nil {
			errs[i] = err
			return
		}
		digests[i] = godpm.ResultDigest(res)
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("solo run of %s: %w", keys[i].j.ID, err)
		}
	}
	for _, j := range jobs {
		if got, want := passes[j.pass].digests[j.idx], digests[solo[j.key]]; got != want {
			o.failed++
			o.fail("pass seed %d job %s: digest %s, solo run %s", passes[j.pass].seed, j.j.ID, got, want)
		}
	}
	return nil
}

// traceBatch replays the first timed passes in-process and serially, in
// the engine's stage order per job (fingerprint, probe, then on a miss
// simulate, encode, put), against a fresh cache per pass. Fork groups
// are not public API, so horizon-study members each simulate solo here.
func traceBatch(cfg runConfig, o *outcome, passes []pass) error {
	tr := newTracer()
	sc := simCounts{exact: func(int) bool { return true }}
	req := 0
	miss := map[int]bool{}
	for _, p := range passes {
		root := tr.begin("batch.pass", -1, req)
		s := tr.begin("experiments.resolve", root, req)
		plan := batchPlan(p.seed)
		tr.end(s)
		cache := godpm.NewLRUCache(godpm.LRUOptions{})
		for _, j := range plan.Jobs {
			req++
			job := tr.begin("engine.job", root, req)
			s := tr.begin("engine.fingerprint", job, req)
			key, err := godpm.Fingerprint(j.Config)
			tr.end(s)
			if err != nil {
				return err
			}
			s = tr.begin("engine.probe", job, req)
			rec, ok := cache.Get(key)
			tr.end(s)
			if ok {
				s = tr.begin("engine.record_decode", job, req)
				_, err = rec.Result()
				tr.end(s)
			} else {
				miss[req] = true
				_, _, err = missPath(tr, cache, &sc, job, req, key, j.Config)
			}
			if err != nil {
				return err
			}
			tr.end(job)
		}
		tr.end(root)
	}
	if err := tr.write(tracePath(cfg)); err != nil {
		return err
	}
	for _, name := range []string{"experiments.resolve", "engine.fingerprint", "engine.probe",
		"engine.record_decode", "engine.record_encode", "engine.put"} {
		o.set(name+"_us", tr.medianUs(name))
	}
	o.set("soc.run_us", tr.medianUs("soc.run"))
	sc.metrics(o)

	jobUs, stagesUs := tr.reconcile("engine.job", []string{"engine.fingerprint", "engine.probe",
		"soc.run", "engine.record_encode", "engine.put"}, func(req int) bool { return miss[req] })
	unattributed := jobUs - stagesUs
	o.set("serve.unattributed_us", unattributed)
	fmt.Printf("reconcile: in-process job median %.1fus = stage medians %.1fus + unattributed %.1fus\n",
		jobUs, stagesUs, unattributed)
	if math.Abs(unattributed) > reconcileTolerance*jobUs {
		o.fail("reconcile: stage medians sum to %.1fus against a %.1fus job median (tolerance %.0f%%)",
			stagesUs, jobUs, 100*reconcileTolerance)
	}
	return nil
}
