package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyondTail is how many samples must lie beyond a reported tail
// percentile. Fewer, and the "p95" is decided by a handful of draws, so
// the run refuses to report it.
const minBeyondTail = 10

// rank returns the 1-based nearest-rank index of quantile q in n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// median is the nearest-rank 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the nearest-rank q-quantile and fails when fewer than
// minBeyondTail samples lie beyond it (so p95 needs at least 200).
func tail(xs []float64, q float64) (float64, error) {
	if beyond := len(xs) - rank(len(xs), q); len(xs) == 0 || beyond < minBeyondTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d",
			100*q, len(xs), max(beyond, 0), minBeyondTail)
	}
	return quantile(xs, q), nil
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
