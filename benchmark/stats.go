package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks, the definition numpy and
// Python's statistics module ("inclusive") use. xs need not be sorted;
// it is not modified. An empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailSamples = 10

// tail returns the highest order statistic that still has tailSamples
// samples above it: with n samples, the (n-tailSamples)th smallest — the
// p90 of 100 samples, the p99.8 of 6000. With tailSamples or fewer
// samples it falls back to the maximum.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 1 - tailSamples
	if i < 0 {
		i = len(s) - 1
	}
	return s[i]
}

// selfTime is a layer's self time: its span's duration minus the time
// its children spent inside it. The children here are calls made one
// after another on the span's own goroutine, so they never overlap and
// their durations simply add up. Clock skew between the two readings
// can make children exceed the span by a few nanoseconds; that reads 0.
func selfTime(span, children time.Duration) time.Duration {
	if children >= span {
		return 0
	}
	return span - children
}
