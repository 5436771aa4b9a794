package measure

import (
	"math"
	"math/rand"
	"slices"
	"time"
)

// Poisson returns the arrival offsets of a Poisson process of the given
// rate (arrivals per second) over [0, dur), conditioned on its expected
// count: exactly round(rate*dur) arrivals, each placed uniformly at random
// in [0, dur) and sorted, which is how a Poisson process's arrivals lie
// once their number is known. The gaps between them are very nearly
// exponential, as in any Poisson process, and the fixed count makes the number of requests a
// schedule sends the same for every seed. The offsets are drawn from rng,
// so the same seed always yields the same schedule. An open loop sends
// request i at offset i whether or not earlier requests have completed.
func Poisson(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	n := int(math.Round(rate * dur.Seconds()))
	if rate <= 0 || dur <= 0 || n == 0 {
		return nil
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	slices.Sort(out)
	return out
}
