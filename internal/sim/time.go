// Package sim implements a discrete-event simulation kernel modelled on the
// SystemC 2.0 scheduler: simulated time with delta cycles, events with
// earliest-wins timed notification, method processes with static/dynamic
// sensitivity, goroutine-backed thread processes with blocking waits, typed
// signals with evaluate/update semantics, clocks, bounded FIFO channels and
// mutex/semaphore primitives.
//
// The kernel is single-threaded and deterministic: within one evaluation
// phase, runnable processes execute in ascending creation order, and thread
// processes are co-operatively scheduled (exactly one goroutine runs at a
// time).
package sim

import "fmt"

// Time is a point in simulated time, measured in picoseconds.
//
// The zero Time is the simulation epoch. Negative values are only used as
// sentinels inside the kernel and are never observable via Kernel.Now.
type Time int64

// Time unit constants. A Duration passed to Event.Notify or Ctx.WaitTime is
// simply a Time interpreted as a span.
const (
	Ps  Time = 1
	Ns  Time = 1000 * Ps
	Us  Time = 1000 * Ns
	Ms  Time = 1000 * Us
	Sec Time = 1000 * Ms
)

// MaxTime is the largest representable simulation time; Run(MaxTime) runs
// until the event queue drains.
const MaxTime Time = 1<<63 - 1

// String renders the time with the largest unit that divides it cleanly,
// e.g. "150ns", "2.5us", "0s".
func (t Time) String() string {
	if t == 0 {
		return "0s"
	}
	neg := ""
	if t < 0 {
		neg = "-"
		t = -t
	}
	type unit struct {
		div  Time
		name string
	}
	units := []unit{{Sec, "s"}, {Ms, "ms"}, {Us, "us"}, {Ns, "ns"}, {Ps, "ps"}}
	for _, u := range units {
		if t >= u.div {
			whole := t / u.div
			frac := t % u.div
			if frac == 0 {
				return fmt.Sprintf("%s%d%s", neg, whole, u.name)
			}
			// Render with a decimal fraction, trimming trailing zeros.
			f := float64(t) / float64(u.div)
			return fmt.Sprintf("%s%g%s", neg, f, u.name)
		}
	}
	return fmt.Sprintf("%s%dps", neg, t)
}

// Seconds converts the time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Sec) }

// FromSeconds converts floating-point seconds to a Time, rounding to the
// nearest picosecond (halves away from zero). Spans beyond the
// representable range — ±Inf included — saturate to ±MaxTime instead of
// wrapping, and NaN converts to 0.
func FromSeconds(s float64) Time {
	ps := s * float64(Sec)
	switch {
	case ps != ps: // NaN
		return 0
	case ps >= float64(MaxTime):
		return MaxTime
	case ps <= -float64(MaxTime):
		return -MaxTime
	case ps < 0:
		return Time(ps - 0.5)
	}
	return Time(ps + 0.5)
}
