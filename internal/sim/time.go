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

import "strconv"

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
	var buf [32]byte
	return string(t.Append(buf[:0]))
}

// timeUnits are String's units, largest first.
var timeUnits = [...]struct {
	div  Time
	name string
}{{Sec, "s"}, {Ms, "ms"}, {Us, "us"}, {Ns, "ns"}, {Ps, "ps"}}

// Append appends the String form of t to b and returns the extended
// buffer. A span that is not a whole number of its unit renders as the
// shortest decimal of the float64 quotient, the way fmt's %g does.
func (t Time) Append(b []byte) []byte {
	if t == 0 {
		return append(b, "0s"...)
	}
	if t < 0 {
		b = append(b, '-')
		t = -t
	}
	for _, u := range timeUnits {
		if t >= u.div {
			if t%u.div == 0 {
				b = strconv.AppendInt(b, int64(t/u.div), 10)
			} else {
				b = strconv.AppendFloat(b, float64(t)/float64(u.div), 'g', -1, 64)
			}
			return append(b, u.name...)
		}
	}
	// Only the most negative Time gets here: negating it overflows back
	// to itself.
	b = strconv.AppendInt(b, int64(t), 10)
	return append(b, "ps"...)
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
