package main

import "testing"

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := tail(xs, 0.95); err == nil {
		t.Fatalf("p95 of %d samples: want an error, fewer than 10 lie beyond it", len(xs))
	}
	xs = append(xs, 200)
	p95, err := tail(xs, 0.95)
	if err != nil {
		t.Fatalf("p95 of 200 samples: %v", err)
	}
	if p95 != 190 {
		t.Fatalf("p95 = %g, want 190 (nearest rank)", p95)
	}
	if _, err := tail(nil, 0.95); err == nil {
		t.Fatal("p95 of no samples: want an error")
	}
}

func TestRunFailsWithTooFewLatencies(t *testing.T) {
	r := newReport()
	if err := r.latency(make([]float64, 150), "read"); err == nil {
		t.Fatal("latency over 150 samples: want an error")
	}
	if _, ok := r.e2e["op_p50_ms"]; ok {
		t.Fatal("latency reported despite too few samples for its p95")
	}
}
