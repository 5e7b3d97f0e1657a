package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// fmtTimeString is the fmt-based Time.String that Append replaced, kept
// verbatim as the reference.
func fmtTimeString(t Time) string {
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
			f := float64(t) / float64(u.div)
			return fmt.Sprintf("%s%g%s", neg, f, u.name)
		}
	}
	return fmt.Sprintf("%s%dps", neg, t)
}

// TestTimeAppendMatchesReference: String and Append render every time as
// the fmt reference did — unit boundaries, negative and fractional spans,
// spans beyond float64's 2^53 exact range, and both extremes.
func TestTimeAppendMatchesReference(t *testing.T) {
	times := []Time{0, 1, -1, 999, 1000, 1001, Sec - 1, Sec, Sec + 1, 7 * Ms / 3,
		1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 7, MaxTime, -MaxTime, math.MinInt64}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 2000; i++ {
		v := Time(rng.Int64() >> rng.IntN(63))
		if i%2 == 1 {
			v = -v
		}
		times = append(times, v, v/Ns*Ns, v/Ms*Ms)
	}
	for _, v := range times {
		want := fmtTimeString(v)
		if got := v.String(); got != want {
			t.Fatalf("Time(%d).String() = %q, reference %q", int64(v), got, want)
		}
		if got := string(v.Append([]byte("x"))); got != "x"+want {
			t.Fatalf("Time(%d).Append = %q, reference %q", int64(v), got, "x"+want)
		}
	}
}
