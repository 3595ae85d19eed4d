package harness

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// quantile is the nearest-rank q-quantile of sorted samples (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

// rank is the nearest-rank index of quantile q among n samples.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(k, n-1))
}

// Tail reports the q-quantile of sorted samples, unless fewer than ten
// samples lie beyond it: then it reports the highest quantile that keeps
// ten beyond. It returns the value, the quantile used and the number of
// samples beyond it. With ten samples or fewer no quantile qualifies and
// the median is reported.
func Tail(sorted []float64, q float64) (v, used float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, q, 0
	}
	k := rank(n, q)
	if n-1-k < minBeyond {
		k = n - 1 - minBeyond
		if k < 0 {
			k = rank(n, 0.5)
		}
		used = float64(k+1) / float64(n)
	} else {
		used = q
	}
	return sorted[k], used, n - 1 - k
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
