package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopChargesStallFromDueTime stalls the server for every
// request while one request is being served. Requests that fell due
// during the stall could not be served before it ended, and the
// generator must charge each of them the wait from its due time; timing
// from the send instead would report them as fast (coordinated
// omission).
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const (
		rate   = 200.0 // requests per second: one due every 5ms
		n      = 120
		stallI = 20
		stall  = 150 * time.Millisecond
	)
	var mu sync.Mutex // held for the stall: every request waits on it
	var stallEnd time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i, _ := strconv.Atoi(r.URL.Query().Get("i"))
		mu.Lock()
		if i == stallI {
			time.Sleep(stall)
			stallEnd = time.Now()
		}
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	client := srv.Client()

	for _, senders := range []int{1, 2} {
		samples := openLoop(context.Background(), rate, n, senders, func(ctx context.Context, i int, due time.Time) (time.Time, error) {
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"?i="+strconv.Itoa(i), nil)
			resp, err := client.Do(req)
			if err != nil {
				return time.Time{}, err
			}
			resp.Body.Close()
			return time.Now(), nil
		})
		start := stallEnd.Add(-stall)
		charged := 0
		for i, s := range samples {
			if s.err != nil {
				t.Fatalf("senders=%d request %d: %v", senders, i, s.err)
			}
			due := start.Add(time.Duration(i-stallI) * time.Second / time.Duration(rate))
			if i <= stallI || !due.Before(stallEnd) {
				continue
			}
			// Served no earlier than the stall's end, timed from its due time.
			if want := stallEnd.Sub(due) - 2*time.Millisecond; s.latency < want {
				t.Errorf("senders=%d request %d: latency %v, want at least %v", senders, i, s.latency, want)
			}
			charged++
		}
		if charged < 20 {
			t.Fatalf("senders=%d: only %d requests fell due during the stall", senders, charged)
		}
		if s := samples[n-1]; s.late > stall {
			t.Errorf("senders=%d: the generator never caught up (last request %v late)", senders, s.late)
		}
	}
}
