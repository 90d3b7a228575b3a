package storage

import "sync"

// The write-repair journal remembers which (GOP, member) copies the
// ring knows to be missing — a replica write that failed while another
// succeeded, or a failover read that caught a member without the bytes
// a sibling served — so the next Repair pass re-creates exactly those
// copies without walking every member. It is a best-effort
// accelerator, not the durability mechanism: the journal lives in
// process memory, is bounded, and caps attempts per entry; anything it
// forgets (process restart, overflow, a copy that keeps failing) is
// caught by the next full scrub. That split keeps the common case —
// one member briefly down — repaired within one cycle while the scrub
// stays the ground truth. It matters most over the network, where
// "wait for the next full scrub" would leave a fleet under-replicated
// for minutes.

const (
	// journalMax bounds queued entries; the oldest is evicted (and
	// counted dropped) when a new entry would exceed it.
	journalMax = 4096
	// journalAttempts is the repair budget per entry before it is
	// dropped to the scrub.
	journalAttempts = 5
	// repairBatch bounds the entries one Repair pass drains, so a pass
	// behind a long outage does bounded work per cycle.
	repairBatch = 1024
)

// journalKey identifies one missing replica copy.
type journalKey struct {
	addr GOPAddr
	node int
}

// entry is one queued repair with its attempt count.
type entry struct {
	journalKey
	attempts int
}

// journal is a bounded FIFO of pending repairs, deduplicated by
// (address, node): a GOP written repeatedly while a node is down costs
// one entry, not one per write. Safe for concurrent use.
type journal struct {
	mu      sync.Mutex
	queue   []entry
	queued  map[journalKey]bool
	dropped int64
}

func newJournal() *journal {
	return &journal{queued: make(map[journalKey]bool)}
}

// add queues one missing copy. Already-queued copies are ignored; when
// the journal is full the oldest entry is evicted to the scrub.
func (j *journal) add(addr GOPAddr, node int) {
	k := journalKey{addr, node}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.queued[k] {
		return
	}
	if len(j.queue) >= journalMax {
		delete(j.queued, j.queue[0].journalKey)
		j.queue = j.queue[1:]
		j.dropped++
	}
	j.queued[k] = true
	j.queue = append(j.queue, entry{journalKey: k})
}

// drain removes and returns up to max entries, oldest first. Drained
// entries are no longer deduplicated against: a write that fails while
// its repair is in flight re-queues independently, which at worst
// repairs the copy twice.
func (j *journal) drain(max int) []entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := min(max, len(j.queue))
	batch := make([]entry, n)
	copy(batch, j.queue[:n])
	j.queue = append(j.queue[:0], j.queue[n:]...)
	for _, e := range batch {
		delete(j.queued, e.journalKey)
	}
	return batch
}

// requeue puts a failed repair back, charging one attempt; entries over
// budget are dropped to the scrub instead.
func (j *journal) requeue(e entry) {
	e.attempts++
	j.mu.Lock()
	defer j.mu.Unlock()
	if e.attempts >= journalAttempts || j.queued[e.journalKey] || len(j.queue) >= journalMax {
		j.dropped++
		return
	}
	j.queued[e.journalKey] = true
	j.queue = append(j.queue, e)
}

// forget removes every queued entry whose address matches, so a deleted
// GOP's pending repair cannot resurrect it.
func (j *journal) forget(match func(GOPAddr) bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	kept := j.queue[:0]
	for _, e := range j.queue {
		if match(e.addr) {
			delete(j.queued, e.journalKey)
			continue
		}
		kept = append(kept, e)
	}
	j.queue = kept
}

// depth returns the number of queued entries.
func (j *journal) depth() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.queue)
}

// droppedCount returns the cumulative count of entries evicted without
// repair.
func (j *journal) droppedCount() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}
