// Package journal is the event-sourced request journal under checkd: an
// append-only log of typed events on the snapshot store's SNP1 record
// framing, written by a batched single-writer loop and consumed by
// asynchronous projections.
//
// The design splits durability from derivation:
//
//   - the journal (this file + codec.go + backend.go) is the single
//     durable source of truth. Concurrent appenders hand records to one
//     writer goroutine that coalesces them into group commits — one
//     flush per batch, one ack per record — so heavy write traffic pays
//     one fsync-equivalent per batch instead of one per request. In
//     memory the journal keeps only an index — sequence number, kind,
//     byte offset and length per event — and reads payloads back from
//     the backend, so its heap does not grow with the history;
//   - projections (projection.go) are derived views: registered
//     consumers replay the journal from their checkpoint and then
//     follow live commits, each a stuttering refinement of the event
//     history — replaying any prefix converges to the same observable
//     state, so crash recovery is replay, not reconstruction.
//
// The paper's frame is what makes the split safe: correctness lives in
// convergence, not in fragile in-flight state. A torn tail, a corrupt
// record, or a lost unflushed batch is a bounded perturbation — replay
// resynchronizes past the damage (CRC + NextMagic), the sequence number
// never regresses, and every projection converges to the state implied
// by the surviving prefix.
package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster/store"
)

// Limits and defaults. One event is a request/verdict-sized JSON blob;
// anything near the record cap is a bug, not data.
const (
	// DefaultMaxBatch is the group-commit coalescing bound.
	DefaultMaxBatch = 256
	// DefaultMaxQueue bounds records waiting for the writer; beyond it,
	// appenders block (backpressure, not unbounded memory).
	DefaultMaxQueue = 1024
	// MaxEventBytes bounds one event's payload.
	MaxEventBytes = 1 << 20
)

// Journal errors.
var (
	// ErrClosed rejects appends after Close.
	ErrClosed = errors.New("journal: closed")
	// ErrEventTooLarge rejects oversized payloads at admission.
	ErrEventTooLarge = errors.New("journal: event exceeds size bound")
	// ErrShed rejects fire-and-forget appends while the retention ladder
	// is in its shed stage: the disk budget is exhausted and compaction
	// plus a checkpoint attempt could not reclaim it. Never silent — the
	// caller sees the error and RetentionStats counts it.
	ErrShed = errors.New("journal: async append shed under disk pressure")
	// ErrCompacted rejects a ReplayTo target below the compaction
	// horizon: the prefix needed to reconstruct that state is gone.
	ErrCompacted = errors.New("journal: sequence below compaction horizon")
)

// Options tunes a journal. Zero values mean "use the default".
type Options struct {
	// MaxBatch caps records coalesced into one group commit.
	MaxBatch int
	// MaxQueue bounds the pending-append queue.
	MaxQueue int
	// MaxBytes, when positive, is the journal's disk budget: past it the
	// writer compacts, then applies backpressure, then sheds async
	// appends (see retention.go). Requires a ReplaceBackend. Zero means
	// unbounded (compaction still runs when requested explicitly).
	MaxBytes int64
	// CheckpointInterval is the cadence at which the journal's owner
	// promises to publish durable coverage (SetCovered) — the journal
	// itself never ticks a clock, but Validate rejects a budget with no
	// checkpoint cadence because compaction could then never reclaim.
	CheckpointInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = DefaultMaxQueue
	}
	return o
}

// appendReq is one record handed to the writer. ack is nil for
// fire-and-forget appends (AppendAsync).
type appendReq struct {
	kind string
	data []byte
	ack  chan appendAck
}

type appendAck struct {
	seq uint64
	err error
}

// indexEntry is what the journal keeps in memory per durable event; the
// payload itself lives only in the backend.
type indexEntry struct {
	seq  uint64
	kind *kindInfo
	off  int64 // the record's byte offset in the backend
	n    int32 // the record's length
}

// Journal is the append-only event log. Construct with Open, dispose
// with Close. Append/AppendAsync are safe for concurrent use; replay
// state (Read, LastSeq) is safe to read concurrently with appends.
type Journal struct {
	b   Backend
	opt Options

	appendc chan appendReq
	stop    chan struct{}
	done    chan struct{}

	mu      sync.Mutex
	closed  bool
	index   []indexEntry         // durable history, oldest first
	kinds   map[string]*kindInfo // interned kinds; writer goroutine only after Open
	hooks   []func(last uint64)
	gate    func(next uint64) // optional admission gate (bounded projection lag)
	batches batchHistogram

	// Retention state (retention.go). covered/ckptAttempts are guarded
	// by mu; pressure waits on them. retain/ckptReq are set before
	// traffic. compactc carries compaction requests to the writer.
	covered      uint64
	ckptAttempts uint64
	pressureBase uint64 // ckptAttempts snapshot at backpressure escalation
	pressure     *sync.Cond
	retain       func() (uint64, bool)
	ckptReq      func()
	compactc     chan chan struct{}

	// swap orders reads against compaction: Read holds it shared while
	// it resolves offsets and reads them; runCompaction holds it
	// exclusively across the backend swap and the index rebuild.
	swap sync.RWMutex
	// end is the backend's size as the writer knows it, where the next
	// batch lands; -1 after a failed append, which may have left a torn
	// prefix of unknown length. Writer goroutine only.
	end        int64
	unreadable atomic.Int64 // event reads whose record failed to verify

	lastSeq      atomic.Uint64 // highest durable sequence number
	depth        atomic.Int64  // records accepted but not yet flushed
	records      atomic.Int64  // records durably committed
	commits      atomic.Int64  // group commits flushed
	appendErrors atomic.Int64  // records whose flush failed

	usage         atomic.Int64  // backend bytes, tracked journal-side
	horizon       atomic.Uint64 // highest compacted-away sequence number
	level         atomic.Int32  // degradation ladder stage (DegradeNone…)
	compactions   atomic.Int64  // successful compaction swaps
	compactErrors atomic.Int64  // failed compaction swaps
	dropped       atomic.Int64  // events dropped by compaction
	reclaimed     atomic.Int64  // bytes reclaimed by compaction
	shed          atomic.Int64  // async appends shed under disk pressure

	replay Stats // decode stats from Open, immutable afterwards
}

// Open reads and validates b's existing contents (resynchronizing past
// torn or corrupt regions), then starts the writer loop. The returned
// journal continues the surviving sequence numbering: replayed state and
// new appends form one monotonic history.
func Open(b Backend, opt Options) (*Journal, error) {
	raw, err := b.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("journal: read: %w", err)
	}
	index, kinds, stats := indexEvents(raw)
	j := &Journal{
		b:      b,
		opt:    opt.withDefaults(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		index:  index,
		kinds:  kinds,
		end:    int64(len(raw)),
		replay: stats,
	}
	if j.opt.MaxBytes > 0 {
		if _, ok := b.(ReplaceBackend); !ok {
			return nil, errors.New("journal: -journal-max-bytes requires a backend that supports atomic replace")
		}
	}
	j.pressure = sync.NewCond(&j.mu)
	j.compactc = make(chan chan struct{}, 1)
	j.appendc = make(chan appendReq, j.opt.MaxQueue)
	j.usage.Store(int64(stats.Bytes))
	if n := len(index); n > 0 {
		j.lastSeq.Store(index[n-1].seq)
		// A history starting above 1 is the signature of a prior
		// compaction: everything below the first surviving event was
		// covered and dropped. Recover the horizon so ReplayTo and
		// fleet hole detection stay honest across restarts.
		if first := index[0].seq; first > 1 {
			j.horizon.Store(first - 1)
		}
	}
	go j.writer(j.stop)
	return j, nil
}

// indexEvents replays a journal byte stream into the in-memory index
// and the interned kinds. A record whose payload is not shaped the way
// EncodeEvent writes it (no journal this package wrote has one) points
// at a kind entry that makes every read decode it in full.
func indexEvents(b []byte) ([]indexEntry, map[string]*kindInfo, Stats) {
	var index []indexEntry
	kinds := make(map[string]*kindInfo)
	decodeInFull := make(map[string]*kindInfo)
	stats := scanEvents(b, func(ev Event, payload []byte, off, n int) {
		k := internKind(kinds, ev.Kind)
		if data, ok := k.data(payload); !ok || !bytes.Equal(data, ev.Data) {
			if k = decodeInFull[ev.Kind]; k == nil {
				k = &kindInfo{name: ev.Kind}
				decodeInFull[ev.Kind] = k
			}
		}
		index = append(index, indexEntry{seq: ev.Seq, kind: k, off: int64(off), n: int32(n)})
	})
	return index, kinds, stats
}

// internKind returns kinds' entry for kind, adding it if absent.
func internKind(kinds map[string]*kindInfo, kind string) *kindInfo {
	k, ok := kinds[kind]
	if !ok {
		k = newKindInfo(kind)
		kinds[kind] = k
	}
	return k
}

// ReplayStats reports what Open found: events accepted, corrupt records
// skipped, stale (sequence-regressing) records skipped, and resyncs.
func (j *Journal) ReplayStats() Stats { return j.replay }

// LastSeq returns the highest durable sequence number (0 = empty).
func (j *Journal) LastSeq() uint64 { return j.lastSeq.Load() }

// Depth returns the number of records accepted but not yet flushed —
// the journal's write backlog, exported as journal_depth.
func (j *Journal) Depth() int64 { return j.depth.Load() }

// Counters returns cumulative commit statistics.
func (j *Journal) Counters() (records, commits, appendErrors int64) {
	return j.records.Load(), j.commits.Load(), j.appendErrors.Load()
}

// BatchPercentiles reports the p50 and p99 group-commit batch sizes.
func (j *Journal) BatchPercentiles() (p50, p99 float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.batches.percentile(0.50), j.batches.percentile(0.99)
}

// Append durably appends one event and returns its sequence number. It
// blocks until the event's group commit has been flushed (or failed):
// when Append returns nil, the event is in the journal.
func (j *Journal) Append(kind string, data []byte) (uint64, error) {
	ack := make(chan appendAck, 1)
	if err := j.enqueue(appendReq{kind: kind, data: data, ack: ack}); err != nil {
		return 0, err
	}
	a := <-ack
	return a.seq, a.err
}

// AppendAsync appends one event without waiting for durability: the
// record rides the next group commit, and a flush failure is counted
// (Counters) rather than surfaced. Use it for derived bookkeeping
// events whose loss a restart can tolerate; verdicts use Append.
func (j *Journal) AppendAsync(kind string, data []byte) error {
	return j.enqueue(appendReq{kind: kind, data: data})
}

func (j *Journal) enqueue(r appendReq) error {
	if len(r.data) > MaxEventBytes {
		return fmt.Errorf("%w: %d bytes", ErrEventTooLarge, len(r.data))
	}
	// The ladder's last rung: fire-and-forget kinds shed under disk
	// pressure. Durable appends (with an ack) are never shed — they ride
	// the queue and either commit or return an error.
	if r.ack == nil && j.level.Load() >= DegradeShed {
		j.shed.Add(1)
		return ErrShed
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	// Count under the lock so Close's drain loop sees every accepted
	// record before deciding the queue is empty.
	j.depth.Add(1)
	j.mu.Unlock()
	j.appendc <- r
	return nil
}

// Read returns the durable events with from ≤ Seq ≤ to, oldest first,
// at most max of them (max ≤ 0: no cap). Payloads come from the
// backend, one read covering the range's records, so a bounded read
// costs bounded memory and I/O whatever the history's length. A record
// that no longer reads back intact (a torn or corrupted region) comes
// back with its sequence number and kind but nil Data, and is counted in
// Unreadable: consumers skip its content, as a restart's replay would,
// while their checkpoints still move past it. The error reports a
// failing backend read.
func (j *Journal) Read(from, to uint64, max int) ([]Event, error) {
	j.swap.RLock()
	defer j.swap.RUnlock()
	j.mu.Lock()
	lo := j.search(from)
	hi := len(j.index)
	if to < ^uint64(0) {
		hi = j.search(to + 1)
	}
	if hi < lo { // to < from
		hi = lo
	}
	if max > 0 && hi-lo > max {
		hi = lo + max
	}
	// Entries below len(j.index) are never rewritten in place (commits
	// append, compaction builds a new slice under swap), so the subslice
	// stays valid after the lock drops.
	ents := j.index[lo:hi:hi]
	j.mu.Unlock()
	if len(ents) == 0 {
		return nil, nil
	}
	first := ents[0].off
	last := ents[len(ents)-1]
	buf := make([]byte, last.off+int64(last.n)-first)
	n, err := j.b.ReadAt(buf, first)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("journal: read: %w", err)
	}
	buf = buf[:n]
	out := make([]Event, 0, len(ents))
	for i := range ents {
		e := &ents[i]
		ev, ok := Event{}, false
		if rel := e.off - first; rel+int64(e.n) <= int64(len(buf)) {
			ev, ok = e.decode(buf[rel : rel+int64(e.n)])
		}
		if !ok {
			j.unreadable.Add(1)
			ev = Event{Seq: e.seq, Kind: e.kind.name}
		}
		out = append(out, ev)
	}
	return out, nil
}

// Scan calls fn with each durable event above from, oldest first,
// reading page events per Read (page ≤ 0: one read of everything),
// until fn returns false or the history runs out. It returns the
// sequence number of the last event fn accepted (from if none). A cursor
// below the compaction horizon fails with ErrCompacted, whether it was
// there at the start or a compaction between two pages put it there:
// the events it expects are gone, and resuming above the horizon would
// skip them silently.
func (j *Journal) Scan(from uint64, page int, fn func(Event) bool) (uint64, error) {
	next := from
	for {
		evs, err := j.Read(next+1, ^uint64(0), page)
		if err != nil {
			return next, err
		}
		// Checked after the read: a compaction the read observed has
		// published its horizon by then.
		if h := j.horizon.Load(); next < h {
			return next, fmt.Errorf("%w: cursor %d < horizon %d", ErrCompacted, next, h)
		}
		for _, ev := range evs {
			if !fn(ev) {
				return next, nil
			}
			next = ev.Seq
		}
		if page <= 0 || len(evs) < page {
			return next, nil
		}
	}
}

// search returns the index of the first event with Seq ≥ seq. Caller
// holds mu.
func (j *Journal) search(seq uint64) int {
	return sort.Search(len(j.index), func(i int) bool { return j.index[i].seq >= seq })
}

// decode rebuilds e's event from its record bytes, verifying the frame's
// checksum and sequence number. The event's data aliases rec unless the
// record had to be decoded in full.
func (e *indexEntry) decode(rec []byte) (Event, bool) {
	seq, payload, _, err := store.DecodeRecord(rec)
	if err != nil || seq != e.seq {
		return Event{}, false
	}
	if data, ok := e.kind.data(payload); ok {
		return Event{Seq: seq, Kind: e.kind.name, Data: data}, true
	}
	ev, _, _, err := decodeOne(rec)
	if err != nil {
		return Event{}, false
	}
	ev.Kind = e.kind.name
	return ev, true
}

// Unreadable counts event reads that found the record no longer intact;
// a record read by several consumers counts once per read.
func (j *Journal) Unreadable() int64 { return j.unreadable.Load() }

// AddCommitHook registers fn to run after every group commit with the
// new last sequence number. Hooks run on the writer goroutine and must
// not block on the journal itself; the projection engine uses one to
// wake its drivers.
func (j *Journal) AddCommitHook(fn func(last uint64)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.hooks = append(j.hooks, fn)
}

// SetGate installs an admission gate the writer consults before each
// group commit, passing the current last sequence number. The gate may
// block (the projection engine bounds lag with it) but must return once
// its condition clears or its owner closes.
func (j *Journal) SetGate(gate func(last uint64)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.gate = gate
}

// writer is the single-writer group-commit loop: take one record, drain
// whatever else is queued (up to MaxBatch), flush once, ack each.
func (j *Journal) writer(stop chan struct{}) {
	defer close(j.done)
	for {
		var first appendReq
		select {
		case first = <-j.appendc:
		case ack := <-j.compactc:
			j.runCompaction()
			if ack != nil {
				close(ack)
			}
			continue
		case <-stop:
			// Graceful close: flush everything accepted before Close.
			for j.depth.Load() > 0 {
				j.commit(j.collect(<-j.appendc))
			}
			return
		}
		batch := j.collect(first)
		j.mu.Lock()
		gate := j.gate
		j.mu.Unlock()
		if gate != nil {
			gate(j.lastSeq.Load())
		}
		j.pressureGate()
		j.commit(batch)
		j.checkBudget()
	}
}

// collect coalesces queued records behind first, up to MaxBatch.
func (j *Journal) collect(first appendReq) []appendReq {
	batch := append(make([]appendReq, 0, 16), first)
	for len(batch) < j.opt.MaxBatch {
		select {
		case r := <-j.appendc:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// commit flushes one batch: assign sequence numbers, encode, append to
// the backend, then publish and ack. Sequence numbers are consumed even
// when the flush fails — a torn write may have persisted a prefix of
// the batch, and reusing its numbers would make replay accept a stale
// record in place of a later acked one.
func (j *Journal) commit(batch []appendReq) {
	base := j.lastSeq.Load()
	if err := j.syncEnd(); err != nil {
		j.fail(batch, base, err)
		return
	}
	var buf []byte
	entries := make([]indexEntry, len(batch))
	for i, r := range batch {
		rec := EncodeEvent(Event{Seq: base + uint64(i) + 1, Kind: r.kind, Data: r.data})
		entries[i] = indexEntry{seq: base + uint64(i) + 1, kind: internKind(j.kinds, r.kind),
			off: j.end + int64(len(buf)), n: int32(len(rec))}
		buf = append(buf, rec...)
	}
	err := j.b.Append(buf)
	j.depth.Add(-int64(len(batch)))
	// Charge the budget even on error: a torn write may have persisted a
	// prefix of the batch, so over-counting is the safe direction.
	j.usage.Add(int64(len(buf)))
	if err != nil {
		// The failed write may have left a torn prefix of unknown
		// length; the next commit re-measures the backend first.
		j.end = -1
		j.fail(batch, base, err)
		return
	}
	j.end += int64(len(buf))
	last := base + uint64(len(batch))
	j.mu.Lock()
	j.index = append(j.index, entries...)
	j.batches.observe(len(batch))
	hooks := j.hooks
	j.mu.Unlock()
	j.lastSeq.Store(last)
	j.records.Add(int64(len(batch)))
	j.commits.Add(1)
	for i, r := range batch {
		if r.ack != nil {
			r.ack <- appendAck{seq: entries[i].seq}
		}
	}
	for _, fn := range hooks {
		fn(last)
	}
}

// fail rejects a batch whose flush failed. The numbering still advances
// past the possibly-torn region.
func (j *Journal) fail(batch []appendReq, base uint64, err error) {
	j.appendErrors.Add(int64(len(batch)))
	for _, r := range batch {
		if r.ack != nil {
			r.ack <- appendAck{err: fmt.Errorf("journal: append: %w", err)}
		}
	}
	j.lastSeqAdvance(base + uint64(len(batch)))
}

// syncEnd re-measures the backend's size after a failed append, reading
// forward from the last offset the writer trusted until the backend
// runs out. Writer goroutine only.
func (j *Journal) syncEnd() error {
	if j.end >= 0 {
		return nil
	}
	j.mu.Lock()
	var end int64
	if n := len(j.index); n > 0 {
		end = j.index[n-1].off + int64(j.index[n-1].n)
	}
	j.mu.Unlock()
	buf := make([]byte, 64<<10)
	for {
		n, err := j.b.ReadAt(buf, end)
		end += int64(n)
		if errors.Is(err, io.EOF) || (err == nil && n < len(buf)) {
			j.end = end
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// lastSeqAdvance moves lastSeq forward without publishing events (the
// failed-flush path). CAS-free: only the writer mutates lastSeq.
func (j *Journal) lastSeqAdvance(to uint64) {
	if to > j.lastSeq.Load() {
		j.lastSeq.Store(to)
	}
}

// Close stops the writer after flushing every accepted record.
// Idempotent; appends after Close fail with ErrClosed.
func (j *Journal) Close() {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		<-j.done
		return
	}
	j.closed = true
	j.mu.Unlock()
	close(j.stop)
	j.pressure.Broadcast() // release a writer parked in the pressure gate
	<-j.done
}

// batchHistogram tracks group-commit batch sizes in power-of-two
// buckets (1, 2, 4, … 512, overflow) for the p50/p99 gauges.
type batchHistogram struct {
	counts [11]int64
	n      int64
}

// batchBucket maps a batch size to its bucket index.
func batchBucket(size int) int {
	i, bound := 0, 1
	for i < 10 && size > bound {
		bound <<= 1
		i++
	}
	return i
}

// batchBucketValue is the representative size of bucket i.
func batchBucketValue(i int) float64 {
	if i >= 10 {
		return 1024
	}
	return float64(int(1) << i)
}

func (h *batchHistogram) observe(size int) {
	h.counts[batchBucket(size)]++
	h.n++
}

// percentile returns the representative batch size at quantile q.
func (h *batchHistogram) percentile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			return batchBucketValue(i)
		}
	}
	return batchBucketValue(len(h.counts) - 1)
}
