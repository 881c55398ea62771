package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cluster/store"
)

// countingBackend counts the bytes ReadAt hands out.
type countingBackend struct {
	MemBackend
	mu   sync.Mutex
	read int64
}

func (c *countingBackend) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.MemBackend.ReadAt(p, off)
	c.mu.Lock()
	c.read += int64(n)
	c.mu.Unlock()
	return n, err
}

func (c *countingBackend) bytesRead() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.read
}

// TestReadPageReadsOnePage is the bounded-read contract: a 512-event
// page over a 20k-event journal reads about one page of payload from the
// backend, not the suffix above it.
func TestReadPageReadsOnePage(t *testing.T) {
	const total, page = 20_000, 512
	var raw []byte
	for seq := uint64(1); seq <= total; seq++ {
		raw = append(raw, EncodeEvent(Event{Seq: seq, Kind: KindVerdict,
			Data: json.RawMessage(fmt.Sprintf(`{"key":"k%05d","pad":"%0100d"}`, seq, 0))})...)
	}
	cb := &countingBackend{MemBackend: MemBackend{buf: raw}}
	j, err := Open(cb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	perEvent := int64(len(raw) / total)

	evs, err := j.Read(1000, math.MaxUint64, page)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != page || evs[0].Seq != 1000 || evs[page-1].Seq != 1000+page-1 {
		t.Fatalf("page = %d events from %d", len(evs), evs[0].Seq)
	}
	if got, want := cb.bytesRead(), page*perEvent; got > want+want/10 {
		t.Fatalf("a %d-event page read %d bytes, want about %d", page, got, want)
	}

	// A closed range stops at its upper bound whatever max says.
	before := cb.bytesRead()
	evs, err = j.Read(19_990, 19_999, 0)
	if err != nil || len(evs) != 10 {
		t.Fatalf("Read(19990, 19999) = %d events, %v", len(evs), err)
	}
	if got := cb.bytesRead() - before; got > 11*perEvent {
		t.Fatalf("a 10-event range read %d bytes", got)
	}

	// An inverted range is empty, not a panic under the journal's locks.
	if evs, err := j.Read(5, 3, 0); err != nil || len(evs) != 0 {
		t.Fatalf("Read(5, 3) = %d events, %v", len(evs), err)
	}

	// ReplayTo reads the prefix it returns, not the history above it.
	before = cb.bytesRead()
	evs, err = j.ReplayTo(100)
	if err != nil || len(evs) != 100 {
		t.Fatalf("ReplayTo(100) = %d events, %v", len(evs), err)
	}
	if got := cb.bytesRead() - before; got > 101*perEvent {
		t.Fatalf("ReplayTo(100) read %d bytes", got)
	}
}

// TestReadReturnsPayloadsAppendedAndReplayed checks both halves of the
// index: events appended by this process and events indexed from a
// replayed file read back with the data they were appended with.
func TestReadReturnsPayloadsAppendedAndReplayed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	fb, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	j, err := Open(fb, Options{MaxBatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`{"a":1}`, `{"b":[1,2]}`, `"<tag>"`, `{"c":{"d":null}}`}
	for _, d := range want {
		mustAppend(t, j, KindOutcome, d)
	}
	if err := j.AppendAsync(KindRequest, nil); err != nil {
		t.Fatal(err)
	}
	j.Close()
	fb.Close()
	check := func(name string, evs []Event) {
		t.Helper()
		if len(evs) != len(want)+1 {
			t.Fatalf("%s: %d events, want %d", name, len(evs), len(want)+1)
		}
		for i, d := range want {
			var a, b any
			_ = json.Unmarshal([]byte(d), &a)
			if err := json.Unmarshal(evs[i].Data, &b); err != nil || fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("%s: event %d data %s, want %s", name, i+1, evs[i].Data, d)
			}
		}
		if last := evs[len(want)]; last.Kind != KindRequest || last.Data != nil {
			t.Fatalf("%s: data-less event read back as %+v", name, last)
		}
	}

	fb2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	j2, err := Open(fb2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	check("replayed", mustRead(t, j2, 0))
	mustAppend(t, j2, KindVerdict, `{"after":"reopen"}`)
	evs := mustRead(t, j2, 6)
	if len(evs) != 1 || string(evs[0].Data) != `{"after":"reopen"}` {
		t.Fatalf("appended after reopen: %+v", evs)
	}
}

// TestReadMatchesFullDecode checks the read path's shortcut, which takes
// event data straight out of a record, against a full JSON decode of the
// same bytes: for replayed and for appended events, for data that
// encoding reshapes or drops, and for a valid record shaped unlike
// anything EncodeEvent writes, which must be decoded in full.
func TestReadMatchesFullDecode(t *testing.T) {
	datas := []string{`{"a":1}`, ` { "spaced" : [1, 2] } `, `"<&>"`, `null`, `0`, ``, `not json`, `{"kind":"x","data":1}`}
	var raw []byte
	for i, d := range datas {
		raw = append(raw, EncodeEvent(Event{Seq: uint64(i + 1), Kind: KindVerdict, Data: json.RawMessage(d)})...)
	}
	raw = append(raw, store.EncodeRecord(uint64(len(datas)+1),
		[]byte(`{"kind":"journal-verdict","data":{"b":2},"extra":3}`))...)
	b := NewMemBackend(raw)
	j, err := Open(b, Options{MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, d := range datas {
		mustAppend(t, j, KindOutcome, d)
	}
	all, _ := b.ReadAll()
	want, _ := DecodeEvents(all)
	got := mustRead(t, j, 0)
	if len(got) != len(want) || len(want) != 2*len(datas)+1 {
		t.Fatalf("read %d events, full decode %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Data, want[i].Data) ||
			(got[i].Data == nil) != (want[i].Data == nil) {
			t.Errorf("event %d: read %+v (%q), full decode %+v (%q)", i, got[i], got[i].Data, want[i], want[i].Data)
		}
	}
}

// partialBackend fails its failAt-th Append after persisting half of it,
// the torn write a full disk or a dying device leaves behind.
type partialBackend struct {
	MemBackend
	n, failAt int
}

func (p *partialBackend) Append(b []byte) error {
	p.n++
	if p.n == p.failAt {
		_ = p.MemBackend.Append(b[:len(b)/2])
		return errors.New("injected torn append")
	}
	return p.MemBackend.Append(b)
}

// TestReadAfterTornAppend checks that a failed append's torn prefix does
// not shift the offsets of the events committed after it, and that
// compaction carries them over intact.
func TestReadAfterTornAppend(t *testing.T) {
	pb := &partialBackend{failAt: 2}
	j, err := Open(pb, Options{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	mustAppend(t, j, KindVerdict, `{"n":1}`)
	if _, err := j.Append(KindVerdict, []byte(`{"n":2}`)); err == nil {
		t.Fatal("torn append acked")
	}
	mustAppend(t, j, KindVerdict, `{"n":3}`)
	mustAppend(t, j, KindVerdict, `{"n":4}`)
	evs := mustRead(t, j, 0)
	if len(evs) != 3 || string(evs[1].Data) != `{"n":3}` || string(evs[2].Data) != `{"n":4}` {
		t.Fatalf("events after a torn append: %+v", evs)
	}
	if j.Unreadable() != 0 {
		t.Fatalf("unreadable = %d", j.Unreadable())
	}
	j.SetCovered(3)
	j.Compact()
	evs = mustRead(t, j, 0)
	if len(evs) != 1 || evs[0].Seq != 4 || string(evs[0].Data) != `{"n":4}` {
		t.Fatalf("events after compaction: %+v", evs)
	}
}

// TestReadSkipsTornTailWithoutStalling reads an acked-but-torn event:
// it comes back without data and counted, and a projection still moves
// past it.
func TestReadSkipsTornTailWithoutStalling(t *testing.T) {
	tb := NewTornBackend(2, 2)
	j, err := Open(tb, Options{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	mustAppend(t, j, KindVerdict, `{"n":1}`)
	mustAppend(t, j, KindVerdict, `{"n":2}`) // the lie: acked, half persisted
	evs := mustRead(t, j, 0)
	if len(evs) != 2 || evs[1].Data != nil || j.Unreadable() != 1 {
		t.Fatalf("torn read = %+v, unreadable %d", evs, j.Unreadable())
	}
	e := NewEngine(j, 0)
	p := &countProjection{name: "count", n: map[string]int{}}
	e.Register(p)
	e.Close()
	if p.Seq() != 2 {
		t.Fatalf("projection stalled at %d behind the torn event", p.Seq())
	}
}

// TestReadConcurrentWithAppendsAndCompaction reads while appenders
// commit and the writer compacts: every event read back carries its own
// payload, and no read sees an offset from the other side of a swap.
func TestReadConcurrentWithAppendsAndCompaction(t *testing.T) {
	j, err := Open(NewMemBackend(nil), Options{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	const appenders, perAppender = 4, 200
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				seq, err := j.Append(KindVerdict, []byte(`{"pad":"`+string(bytes.Repeat([]byte{'x'}, i%50))+`"}`))
				if err != nil {
					t.Error(err)
					return
				}
				if seq%64 == 0 {
					j.SetCovered(seq - 32)
				}
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs, err := j.Read(j.Horizon()+1, math.MaxUint64, 100)
				if err != nil {
					t.Error(err)
					return
				}
				for i, ev := range evs {
					var body struct{ Pad string }
					if json.Unmarshal(ev.Data, &body) != nil || (i > 0 && ev.Seq <= evs[i-1].Seq) {
						t.Errorf("read event %d: %q", ev.Seq, ev.Data)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if j.Unreadable() != 0 {
		t.Fatalf("%d events failed to read back", j.Unreadable())
	}
	if st := j.Retention(); st.Compactions == 0 {
		t.Fatal("no compaction ran during the reads")
	}
}

// TestScanReportsCompactionBetweenPages compacts the journal while a
// Scan is between two pages. The second page would start past the
// dropped events; Scan must fail with ErrCompacted at the last cursor it
// delivered instead of handing over the survivors as if nothing were
// missing.
func TestScanReportsCompactionBetweenPages(t *testing.T) {
	j, err := Open(NewMemBackend(nil), Options{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 1; i <= 12; i++ {
		mustAppend(t, j, KindVerdict, fmt.Sprintf(`{"n":%d}`, i))
	}

	var seen []uint64
	next, err := j.Scan(0, 3, func(ev Event) bool {
		seen = append(seen, ev.Seq)
		if ev.Seq == 3 { // the end of the first page
			j.SetCovered(9)
			if st := j.Compact(); st.HorizonSeq != 9 {
				t.Fatalf("compaction horizon %d, want 9", st.HorizonSeq)
			}
		}
		return true
	})
	if !errors.Is(err, ErrCompacted) || next != 3 {
		t.Fatalf("Scan across a compaction = next %d, %v; want 3, ErrCompacted", next, err)
	}
	if fmt.Sprint(seen) != "[1 2 3]" {
		t.Fatalf("Scan delivered %v past the hole", seen)
	}

	// A cursor already below the horizon fails before delivering
	// anything; one at the horizon reads the survivors.
	if _, err := j.Scan(3, 3, func(Event) bool { t.Fatal("delivered from a compacted cursor"); return true }); !errors.Is(err, ErrCompacted) {
		t.Fatalf("Scan(3) below horizon 9: %v", err)
	}
	seen = seen[:0]
	next, err = j.Scan(9, 2, func(ev Event) bool { seen = append(seen, ev.Seq); return true })
	if err != nil || next != 12 || fmt.Sprint(seen) != "[10 11 12]" {
		t.Fatalf("Scan(9) = %v, next %d, %v", seen, next, err)
	}
}
