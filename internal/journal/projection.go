package journal

import (
	"sync"
	"time"
)

// Projection is a derived view of the journal: a consumer that applies
// events in sequence order and reports its checkpoint. The refinement
// invariant every projection must satisfy: applying any prefix of the
// event history, possibly with stuttering (re-applying events at or
// below the checkpoint), converges to the same observable state —
// Apply must therefore be idempotent per sequence number. Apply runs on
// the projection's driver goroutine and must not append to the journal
// (the bounded-lag gate would deadlock the writer against itself).
type Projection interface {
	// Name identifies the projection in lag gauges.
	Name() string
	// Apply consumes one event. Events arrive in strictly increasing
	// sequence order, starting just above the registration checkpoint.
	Apply(ev Event)
	// Seq returns the checkpoint: the highest sequence number whose
	// event is reflected in the projection's state.
	Seq() uint64
}

// DefaultMaxLag bounds how far (in sequence numbers) the slowest
// projection may trail the journal before appends block.
const DefaultMaxLag = 4096

// Engine drives registered projections asynchronously from a journal:
// each gets a goroutine that replays from its checkpoint and then
// follows live group commits, and an admission gate on the journal's
// writer bounds the slowest projection's lag so a stuck consumer turns
// into append backpressure instead of unbounded memory.
type Engine struct {
	j      *Journal
	maxLag uint64

	mu      sync.Mutex
	cond    *sync.Cond
	seqs    map[string]uint64 // applied checkpoint per projection
	closed  bool
	drivers []chan struct{}

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewEngine wires an engine to j: a commit hook wakes the drivers and
// the admission gate bounds projection lag. maxLag ≤ 0 uses
// DefaultMaxLag.
func NewEngine(j *Journal, maxLag int) *Engine {
	if maxLag <= 0 {
		maxLag = DefaultMaxLag
	}
	e := &Engine{
		j:      j,
		maxLag: uint64(maxLag),
		seqs:   make(map[string]uint64),
		stop:   make(chan struct{}),
	}
	e.cond = sync.NewCond(&e.mu)
	j.AddCommitHook(e.notifyAll)
	j.SetGate(e.admit)
	return e
}

// Register starts driving p. Replay begins just above p.Seq(), so a
// projection restored from a checkpoint skips the prefix it already
// reflects. Call before traffic; registrations race live commits
// harmlessly (the driver catches up) but Lags snapshots mid-replay.
func (e *Engine) Register(p Projection) {
	notify := make(chan struct{}, 1)
	e.mu.Lock()
	e.seqs[p.Name()] = p.Seq()
	e.drivers = append(e.drivers, notify)
	e.mu.Unlock()
	e.wg.Add(1)
	go e.drive(p, notify)
}

func (e *Engine) notifyAll(uint64) {
	e.mu.Lock()
	drivers := e.drivers
	e.mu.Unlock()
	for _, ch := range drivers {
		select {
		case ch <- struct{}{}:
		default: // already poked; the driver drains everything pending
		}
	}
}

// admit is the journal writer's gate: block while the slowest
// projection trails by more than maxLag. Returns immediately once the
// engine closes so Close cannot wedge the writer.
func (e *Engine) admit(last uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for !e.closed {
		min, ok := e.minSeqLocked()
		if !ok || last < min+e.maxLag {
			return
		}
		e.cond.Wait()
	}
}

// MinSeq returns the smallest projection checkpoint; ok is false with
// no registrations. The retention layer uses it as the compaction
// floor: events above the slowest projection's checkpoint are still
// needed for its replay and must not be dropped.
func (e *Engine) MinSeq() (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.minSeqLocked()
}

// minSeqLocked returns the smallest projection checkpoint; ok is false
// with no registrations.
func (e *Engine) minSeqLocked() (uint64, bool) {
	var min uint64
	ok := false
	for _, s := range e.seqs {
		if !ok || s < min {
			min, ok = s, true
		}
	}
	return min, ok
}

func (e *Engine) drive(p Projection, notify chan struct{}) {
	defer e.wg.Done()
	for {
		e.catchUp(p)
		select {
		case <-notify:
		case <-e.stop:
			e.catchUp(p) // final drain so Close leaves projections converged
			return
		}
	}
}

// catchUpPage bounds one catch-up read: a projection replaying a long
// history holds one page of payloads at a time.
const catchUpPage = 256

// catchUp applies everything the journal holds above p's checkpoint,
// page by page, then publishes the new checkpoint and wakes
// gate/WaitCaughtUp waiters. A failing backend read ends the pass; the
// next commit's wakeup retries it.
func (e *Engine) catchUp(p Projection) {
	for {
		evs, err := e.j.Read(p.Seq()+1, ^uint64(0), catchUpPage)
		for _, ev := range evs {
			p.Apply(ev)
		}
		if err != nil || len(evs) == 0 {
			break
		}
	}
	e.mu.Lock()
	e.seqs[p.Name()] = p.Seq()
	e.mu.Unlock()
	e.cond.Broadcast()
}

// Lags returns each projection's current lag behind the journal in
// sequence numbers. Sequence gaps from failed commits inflate the
// number slightly; it is a bound, not an exact event count.
func (e *Engine) Lags() map[string]uint64 {
	last := e.j.LastSeq()
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]uint64, len(e.seqs))
	for name, s := range e.seqs {
		var lag uint64
		if last > s {
			lag = last - s
		}
		out[name] = lag
	}
	return out
}

// WaitCaughtUp blocks until every projection's checkpoint reaches the
// journal's last sequence number, or the timeout elapses; it reports
// whether convergence was reached. This is checkd's startup barrier:
// replay the journal, wait here, then open /readyz.
func (e *Engine) WaitCaughtUp(timeout time.Duration) bool {
	expired := false
	t := time.AfterFunc(timeout, func() {
		e.mu.Lock()
		expired = true
		e.mu.Unlock()
		e.cond.Broadcast()
	})
	defer t.Stop()
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		min, ok := e.minSeqLocked()
		caught := !ok || min >= e.j.LastSeq()
		if caught || e.closed || expired {
			return caught
		}
		e.cond.Wait()
	}
}

// Close stops the drivers after a final catch-up pass and releases any
// writer blocked in the gate. Close the engine before the journal so
// the last commits are still readable during the final drain.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.stop)
	e.cond.Broadcast()
	e.wg.Wait()
}
