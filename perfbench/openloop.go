package main

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// sample is one open-loop request's outcome. Latency runs from when the
// request was due, not from when it was sent: a sender that falls behind
// (a stalled server, a slow earlier request) charges its lateness to
// every request it sends late, so a stall is never hidden by the
// generator slowing down with the system (no coordinated omission).
type sample struct {
	late    time.Duration // send time minus due time
	latency time.Duration // first byte (or failure) minus due time
	err     error
}

// spinWindow is how long before a request's due time its sender stops
// sleeping and polls the clock instead. A timer wake-up on a virtual
// machine runs about 0.6 ms late, with a spread from run to run as large
// as a cached response's whole service time; polling the last stretch
// keeps that error of the generator out of the latency it charges to the
// system. Polling yields the processor, so a request being served meanwhile
// still runs.
const spinWindow = 2 * time.Millisecond

// openLoop issues n requests at a fixed rate from the given number of
// sender goroutines, request i due at start + i/rate and handled by
// sender i mod senders. do runs one request and returns when its first
// byte arrived (the rest of the response may be read after). openLoop
// returns once every request has been run, or ctx is done.
func openLoop(ctx context.Context, rate float64, n, senders int,
	do func(ctx context.Context, i int, due time.Time) (firstByte time.Time, err error)) []sample {
	out := make([]sample, n)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < senders; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(0)
			defer timer.Stop()
			<-timer.C
			for i := k; i < n; i += senders {
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due) - spinWindow; wait > 0 {
					timer.Reset(wait)
					select {
					case <-timer.C:
					case <-ctx.Done():
						return
					}
				}
				for time.Now().Before(due) {
					runtime.Gosched()
				}
				sent := time.Now()
				first, err := do(ctx, i, due)
				if err != nil {
					first = time.Now()
				}
				out[i] = sample{late: sent.Sub(due), latency: first.Sub(due), err: err}
			}
		}()
	}
	wg.Wait()
	return out
}
