package main

import (
	"math/rand"
	"slices"
	"testing"
)

func TestQuotaKeepsTheMixAndTheTotal(t *testing.T) {
	w := zipfWeights(92, zipfAlpha)
	for _, n := range []int{0, 1, 7, 200, 400, 1000} {
		c := quota(w, n)
		total := 0
		for i, k := range c {
			total += k
			// Largest remainder: each count is its share rounded down or up.
			if share := w[i] * float64(n); float64(k) < share-1 || float64(k) > share+1 {
				t.Errorf("n=%d item %d: %d requests for a share of %.2f", n, i, k, share)
			}
		}
		if total != n {
			t.Errorf("n=%d: quota sums to %d", n, total)
		}
	}
}

func TestDeckIsASeededOrderOfTheSameMultiset(t *testing.T) {
	c := quota(zipfWeights(30, zipfAlpha), 200)
	a, b := deck(rand.New(rand.NewSource(1)), c), deck(rand.New(rand.NewSource(2)), c)
	if slices.Equal(a, b) {
		t.Error("two seeds gave the same order")
	}
	if !slices.Equal(a, deck(rand.New(rand.NewSource(1)), c)) {
		t.Error("one seed gave two orders")
	}
	slices.Sort(a)
	slices.Sort(b)
	if !slices.Equal(a, b) {
		t.Error("two seeds gave different multisets")
	}
}
