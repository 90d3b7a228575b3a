package main

import (
	"math"
	"math/rand"
	"sort"
)

// zipfAlpha is the popularity skew of both read workloads: the i-th most
// popular item is requested with probability proportional to
// 1/i^zipfAlpha. Breslau, Cao, Fan, Phillips and Shenker ("Web Caching
// and Zipf-like Distributions: Evidence and Implications", IEEE INFOCOM
// 1999) measured alpha between 0.64 and 0.83 across six proxy-cache
// request traces; 0.75 is the middle of that range. The source paper
// gives no popularity for its random reads.
const zipfAlpha = 0.75

// zipfWeights are the request probabilities of n items in rank order.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	var total float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// quota spreads n requests over items in proportion to weights, rounding
// by largest remainder (ties to the lower index). Every run at a given
// size then asks for the same multiset of requests, and the seed only
// orders them: a run's mix of cheap and costly requests, and with it
// every timing, does not depend on the luck of its draws.
func quota(weights []float64, n int) []int {
	counts := make([]int, len(weights))
	rest := make([]int, len(weights))
	left := n
	for i, w := range weights {
		counts[i] = int(w * float64(n))
		left -= counts[i]
		rest[i] = i
	}
	frac := func(i int) float64 { return weights[i]*float64(n) - float64(counts[i]) }
	sort.SliceStable(rest, func(a, b int) bool { return frac(rest[a]) > frac(rest[b]) })
	for _, i := range rest[:max(left, 0)] {
		counts[i]++
	}
	return counts
}

// deck lists item i counts[i] times, in an order shuffled by rng.
func deck(rng *rand.Rand, counts []int) []int {
	var out []int
	for i, c := range counts {
		for ; c > 0; c-- {
			out = append(out, i)
		}
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}
