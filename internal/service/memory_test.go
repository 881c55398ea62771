package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/gcl"
)

// lintProgram is the i'th of a family of distinct programs whose lint
// verdicts carry a dozen diagnostics, a few KB of journal payload each.
func lintProgram(i int) string {
	return fmt.Sprintf(`var x : 0..3;
var y : 0..3;
var z : bool;
init x == 0;
action d0: x == %d -> x := 0;
action d1: x == 18 -> y := 1;
action d2: y > 5 -> x := x + 1;
action t0: x >= 0 -> z := z;
action o1: x < 2 -> x := x + 1;
action o2: x < 3 -> x := 0;
action o3: y < 3 -> y := y + 1;
action o4: y == 3 -> y := 0;
`, 17+i)
}

func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestJournalHeapDoesNotGrowWithHistory: the journal keeps an index in
// memory and its payloads on disk. With the verdict cache disabled,
// nothing else keeps a verdict alive, so N distinct lint requests must
// grow the live heap by a small fraction of what they add to the file.
func TestJournalHeapDoesNotGrowWithHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	svc := New(Config{Workers: 1, QueueDepth: 8, CacheEntries: -1, JournalPath: path})
	defer svc.Close()
	lint := func(i int) {
		raw, _ := json.Marshal(LintRequest{Source: lintProgram(i)})
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/lint", bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			t.Fatalf("lint %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	fileSize := func() int64 {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	for i := 0; i < 20; i++ { // warm the server's lazily built state
		lint(i)
	}
	waitJournalIdle(t, svc)
	heap0, file0 := liveHeap(), fileSize()

	const n = 1000
	for i := 20; i < 20+n; i++ {
		lint(i)
	}
	waitJournalIdle(t, svc)
	heapGrowth, fileGrowth := liveHeap()-heap0, fileSize()-file0
	t.Logf("%d lint requests: journal file +%d B, live heap %+d B", n, fileGrowth, heapGrowth)
	if fileGrowth < n*1000 {
		t.Fatalf("journal grew only %d B; the requests did not journal their verdicts", fileGrowth)
	}
	if heapGrowth*10 >= fileGrowth {
		t.Fatalf("live heap grew %d B for %d B of journal: payloads are held in memory", heapGrowth, fileGrowth)
	}
}

// TestCompileHonorsCancelledRequest: a request whose context is done
// stops enumerating and reports the context's error — the 504 path —
// rather than a client error.
func TestCompileHonorsCancelledRequest(t *testing.T) {
	prog, err := gcl.Parse("var x : 0..262143;\naction a: x < 262143 -> x := x + 1;")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = compile(ctx, "program", "source", prog)
	var re *requestError
	if !errors.Is(err, context.Canceled) || errors.As(err, &re) {
		t.Fatalf("compile under a cancelled context = %v, want context.Canceled", err)
	}
	if _, err := compile(context.Background(), "program", "source", mustParse(t, "var x : 0..1;\naction a: true -> x := x + 1;")); !errors.As(err, &re) {
		t.Fatalf("domain escape = %v, want a request error", err)
	}
}

func mustParse(t *testing.T, src string) *gcl.Program {
	t.Helper()
	prog, err := gcl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
