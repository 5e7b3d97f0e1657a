package engine_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"godpm/internal/engine"
	"godpm/internal/sim"
	"godpm/internal/soc"
)

// holdObserver parks its run at RunStart until released: a job carrying
// one holds a simulation slot for as long as the test wants.
type holdObserver struct {
	soc.NopObserver
	started chan struct{}
	release chan struct{}
}

func newHoldObserver() *holdObserver {
	return &holdObserver{started: make(chan struct{}), release: make(chan struct{})}
}

func (o *holdObserver) RunStart(*soc.RunInfo) {
	close(o.started)
	<-o.release
}

// holdSlot starts a run of a distinct config that takes a slot and parks
// in it. It returns the observer (close its release channel to let the
// run finish) and a channel that yields the run's JobResult.
func holdSlot(t *testing.T, eng *engine.Engine, seed int64) (*holdObserver, <-chan engine.JobResult) {
	t.Helper()
	obs := newHoldObserver()
	var plan engine.Plan
	plan.AddWith(fmt.Sprintf("hold%d", seed), testConfig(seed, soc.PolicyDPM, 10),
		soc.RunOptions{Observers: []soc.Observer{obs}})
	done := runAsync(eng, context.Background(), plan)
	select {
	case <-obs.started:
	case <-time.After(5 * time.Second):
		t.Fatal("the holding job never started simulating")
	}
	return obs, first(done)
}

// runAsync runs the plan on its own goroutine.
func runAsync(eng *engine.Engine, ctx context.Context, plan engine.Plan) <-chan []engine.JobResult {
	done := make(chan []engine.JobResult, 1)
	go func() {
		results, _ := eng.Run(ctx, plan)
		done <- results
	}()
	return done
}

// first narrows a single-job plan's result channel to its one result.
func first(done <-chan []engine.JobResult) <-chan engine.JobResult {
	out := make(chan engine.JobResult, 1)
	go func() { out <- (<-done)[0] }()
	return out
}

// await receives from c or fails the test after a generous timeout.
func await[T any](t *testing.T, c <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-c:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never returned", what)
		panic("unreachable")
	}
}

func singleJob(id string, cfg soc.Config) engine.Plan {
	var p engine.Plan
	p.Add(id, cfg)
	return p
}

// TestHitDoesNotWaitForSlot: with the only slot held by a running miss,
// a hit on a warmed key is served without waiting for it.
func TestHitDoesNotWaitForSlot(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	warm := singleJob("warm", testConfig(1, soc.PolicyDPM, 10))
	if _, err := eng.Run(context.Background(), warm); err != nil {
		t.Fatal(err)
	}
	obs, held := holdSlot(t, eng, 2)
	if b := eng.Busy(); b != 1 {
		t.Fatalf("Busy() = %d while the miss runs, want 1", b)
	}
	hit := await(t, runAsync(eng, context.Background(), warm), "the hit")
	if hit[0].Err != nil || !hit[0].CacheHit {
		t.Fatalf("warmed job: err %v, hit %v", hit[0].Err, hit[0].CacheHit)
	}
	select {
	case <-held:
		t.Fatal("the miss finished before the hit was served")
	default:
	}
	close(obs.release)
	if jr := await(t, held, "the miss"); jr.Err != nil {
		t.Fatal(jr.Err)
	}
	if b := eng.Busy(); b != 0 {
		t.Fatalf("Busy() = %d after every job finished", b)
	}
}

// TestSlotWaitCancellation: a flight leader whose context dies while it
// waits for a slot returns context.Canceled, is booked as Canceled (not
// as a miss or run), and leaks no slot; its singleflight follower retakes
// the flight and simulates once the slot frees up.
func TestSlotWaitCancellation(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	obs, held := holdSlot(t, eng, 3)

	job := singleJob("waiter", testConfig(4, soc.PolicyDPM, 10))
	ctx, cancel := context.WithCancel(context.Background())
	// The pauses only order the two joins so the retake path is the one
	// exercised; if the second job wins the flight instead, every
	// assertion below still holds.
	leader := first(runAsync(eng, ctx, job))
	time.Sleep(30 * time.Millisecond)
	follower := first(runAsync(eng, context.Background(), job))
	time.Sleep(30 * time.Millisecond)

	cancel()
	jr := await(t, leader, "the cancelled leader")
	if !errors.Is(jr.Err, context.Canceled) {
		t.Fatalf("cancelled waiter: err %v, want context.Canceled", jr.Err)
	}
	if b := eng.Busy(); b != 1 {
		t.Fatalf("Busy() = %d after the waiter left, want 1 (the holder)", b)
	}
	select {
	case jr := <-follower:
		t.Fatalf("follower returned while the slot is held: %+v", jr.Err)
	default:
	}

	close(obs.release)
	if jr := await(t, held, "the holder"); jr.Err != nil {
		t.Fatal(jr.Err)
	}
	fr := await(t, follower, "the follower")
	if fr.Err != nil || fr.Result == nil {
		t.Fatalf("follower: %v", fr.Err)
	}
	st := eng.Stats()
	if st.Canceled != 1 || st.Errors != 0 {
		t.Fatalf("stats %+v, want exactly one cancellation and no errors", st)
	}
	if st.Runs != 2 || st.Misses != 2 {
		t.Fatalf("runs %d, misses %d; want 2 each (the holder and the follower)", st.Runs, st.Misses)
	}
	if b := eng.Busy(); b != 0 {
		t.Fatalf("Busy() = %d after every job finished", b)
	}
}

// simsInFlight counts goroutines inside a simulation entry point, read
// from their stacks rather than from the engine's own slot gauge.
func simsInFlight(buf []byte) int {
	n := runtime.Stack(buf, true)
	count := 0
	for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
		if bytes.Contains(g, []byte("godpm/internal/soc.RunWith(")) ||
			bytes.Contains(g, []byte("godpm/internal/soc.RunForked(")) {
			count++
		}
	}
	return count
}

// TestSlotsBoundConcurrentRuns: concurrent Run calls on one engine —
// solo jobs and fork groups alike — never have more than Workers
// simulations running at once, and every job still completes.
func TestSlotsBoundConcurrentRuns(t *testing.T) {
	const workers = 2
	eng := engine.New(engine.Options{Workers: workers})
	var plans []engine.Plan
	for c := 0; c < 3; c++ {
		var solo engine.Plan
		for i := 0; i < 6; i++ {
			seed := int64(100 + 10*c + i)
			solo.Add(fmt.Sprintf("solo%d", seed), testConfig(seed, soc.PolicyDPM, 150))
		}
		plans = append(plans, solo,
			horizonPlan(int64(200+c), []sim.Time{20 * sim.Sec, 40 * sim.Sec, 60 * sim.Sec}))
	}

	var wg sync.WaitGroup
	failed := make(chan error, len(plans))
	for _, plan := range plans {
		wg.Add(1)
		go func(plan engine.Plan) {
			defer wg.Done()
			if _, err := eng.Run(context.Background(), plan); err != nil {
				failed <- err
			}
		}(plan)
	}
	stop := make(chan struct{})
	go func() { wg.Wait(); close(stop) }()

	buf := make([]byte, 1<<20)
	peak, samples := 0, 0
	for running := true; running; {
		select {
		case <-stop:
			running = false
		default:
			if b := eng.Busy(); b > workers {
				t.Fatalf("Busy() = %d with %d slots", b, workers)
			}
			if n := simsInFlight(buf); n > peak {
				peak = n
			}
			samples++
			time.Sleep(200 * time.Microsecond)
		}
	}
	close(failed)
	for err := range failed {
		t.Fatal(err)
	}
	if peak > workers {
		t.Fatalf("%d simulations ran at once on %d slots", peak, workers)
	}
	if peak == 0 {
		t.Fatalf("no simulation observed in %d samples", samples)
	}
	st := eng.Stats()
	if want := int64(3*6 + 3); st.Runs != want {
		t.Fatalf("runs = %d, want %d (18 solo jobs and 3 fork groups)", st.Runs, want)
	}
	if b := eng.Busy(); b != 0 {
		t.Fatalf("Busy() = %d after every run finished", b)
	}
}

// TestForkGroupFallbackWithOneSlot: a fork group whose member is led by
// a concurrent solo job (so it falls back to that flight) completes on a
// single slot — the group never holds the slot while the fallback waits.
func TestForkGroupFallbackWithOneSlot(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	obs, held := holdSlot(t, eng, 5)

	horizons := []sim.Time{20 * sim.Sec, 40 * sim.Sec, 60 * sim.Sec}
	group := horizonPlan(6, horizons)
	// The pause lets the solo job lead the first member's flight, so the
	// group falls back for that member; the group must complete either way.
	leader := first(runAsync(eng, context.Background(), singleJob("lead", group.Jobs[0].Config)))
	time.Sleep(30 * time.Millisecond)
	groupDone := runAsync(eng, context.Background(), group)
	time.Sleep(30 * time.Millisecond)
	close(obs.release)

	if jr := await(t, held, "the holder"); jr.Err != nil {
		t.Fatal(jr.Err)
	}
	if jr := await(t, leader, "the solo leader"); jr.Err != nil {
		t.Fatal(jr.Err)
	}
	results := await(t, groupDone, "the fork group")
	for i, jr := range results {
		if jr.Err != nil || jr.Result == nil {
			t.Fatalf("member %d: %v", i, jr.Err)
		}
	}
	if !results[0].CacheHit {
		t.Fatal("the fallback member simulated again instead of sharing the solo leader's run")
	}
	st := eng.Stats()
	if st.Forked != 1 || st.Runs != 3 {
		t.Fatalf("forked %d, runs %d; want 1 and 3 (holder, leader, shared session)", st.Forked, st.Runs)
	}
	if b := eng.Busy(); b != 0 {
		t.Fatalf("Busy() = %d after every job finished", b)
	}
}
