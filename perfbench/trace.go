package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/gcl"
	"repro/internal/gcl/analysis"
	"repro/internal/journal"
	"repro/internal/mc"
	"repro/internal/service"
	"repro/internal/service/cache"
	"repro/internal/system"
)

// The traced replay runs a workload's requests through the layers
// checkd's handlers call, in handler order, with a span around each
// call into a layer's public function. It runs in this process, after
// the server under test has stopped, so the layers see no HTTP and no
// queueing; what the end-to-end latency adds on top is the outside
// share.

// layer is one instrumented call site.
type layer int8

const (
	layerRoot layer = iota - 1 // the whole request, handler glue included
	layerParse
	layerCheck
	layerFingerprint
	layerKey
	layerGet
	layerCompile
	layerCore
	layerLint
	layerPut
	layerEncode
	layerAppend
	numLayers
)

var layerNames = [numLayers]string{
	layerParse:       "gcl.Parse",
	layerCheck:       "gcl.Check",
	layerFingerprint: "gcl.Fingerprint",
	layerKey:         "cache.Key",
	layerGet:         "cache.Get",
	layerCompile:     "gcl.CompileProgram",
	layerCore:        "core.*Gas",
	layerLint:        "analysis.Analyze",
	layerPut:         "cache.Put",
	layerEncode:      "json.Marshal",
	layerAppend:      "journal.Append",
}

// Replay modes. modeTime records a span per call; modeAlloc counts the
// heap allocations of each call; modeOff records nothing, which times
// the replay without tracing.
const (
	modeOff = iota
	modeTime
	modeAlloc
)

// span is one timed call. Start and End are nanoseconds from the start
// of the replay; Layer is -1 for a request's root span.
type span struct {
	Req   int32 `json:"req"`
	Layer layer `json:"layer"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer records spans or allocation counts at the layer boundaries.
type tracer struct {
	mode  int
	t0    time.Time
	req   int32
	spans []span

	ms             runtime.MemStats
	mallocs, bytes uint64 // at the open span's start
	allocs         [numLayers]uint64
	allocBytes     [numLayers]uint64
	calls          [numLayers]int
}

// begin opens a span and returns its start time.
func (t *tracer) begin() int64 {
	switch t.mode {
	case modeTime:
		return int64(time.Since(t.t0)) //gcvet:detrand-ok span timestamps are wall-clock by definition
	case modeAlloc:
		runtime.ReadMemStats(&t.ms)
		t.mallocs, t.bytes = t.ms.Mallocs, t.ms.TotalAlloc
	}
	return 0
}

// end closes the span of l opened at start.
func (t *tracer) end(l layer, start int64) {
	switch t.mode {
	case modeTime:
		end := int64(time.Since(t.t0)) //gcvet:detrand-ok span timestamps are wall-clock by definition
		t.spans = append(t.spans, span{Req: t.req, Layer: l, Start: start, End: end})
	case modeAlloc:
		runtime.ReadMemStats(&t.ms)
		t.allocs[l] += t.ms.Mallocs - t.mallocs
		t.allocBytes[l] += t.ms.TotalAlloc - t.bytes
	}
	if l != layerRoot && t.mode != modeOff {
		t.calls[l]++
	}
}

// replayBudget is the service's default per-request step budget.
const replayBudget = 50_000_000

// replayer holds the layer state one replay pass builds up: a verdict
// cache and a journal on a file backend, as checkd keeps them.
type replayer struct {
	tr    *tracer
	cache *cache.Cache
	j     *journal.Journal
	file  *journal.FileBackend
	path  string
	n     replayCounts
}

// replayCounts are the work counters of the traced requests.
type replayCounts struct {
	gets, hits, compiles, checks, appends, wrong int
	states, edges, gas                           int64
	firstWrong                                   error
}

// newReplayer opens a fresh journal file at path.
func newReplayer(path string) (*replayer, error) {
	fb, err := journal.OpenFile(path)
	if err != nil {
		return nil, err
	}
	j, err := journal.Open(fb, journal.Options{})
	if err != nil {
		fb.Close()
		return nil, err
	}
	return &replayer{
		tr:    &tracer{},
		cache: cache.New(4096),
		j:     j, file: fb, path: path,
	}, nil
}

func (rp *replayer) close() {
	rp.j.Close()
	rp.file.Close()
}

// journalBytes is the journal file's size.
func (rp *replayer) journalBytes() int64 {
	st, err := os.Stat(rp.path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// serve runs one request through the layers; i is its replay index.
func (rp *replayer) serve(i int, r request) {
	t := rp.tr
	t.req = int32(i)
	root := t.begin()
	var err error
	switch r.kind {
	case "selfstab":
		err = rp.selfstab(r)
	case "refine":
		err = rp.refine(r)
	case "lint":
		err = rp.lint(r)
	}
	if t.mode == modeTime {
		t.end(layerRoot, root)
	}
	if err != nil {
		rp.n.wrong++
		if rp.n.firstWrong == nil {
			rp.n.firstWrong = fmt.Errorf("replay %s: %w", r.program, err)
		}
	}
}

// program parses and checks one source, as the handlers' admission step.
func (rp *replayer) program(src string) (*gcl.Program, string, error) {
	t := rp.tr
	s := t.begin()
	prog, err := gcl.Parse(src)
	t.end(layerParse, s)
	if err != nil {
		return nil, "", err
	}
	s = t.begin()
	err = gcl.Check(prog)
	t.end(layerCheck, s)
	if err != nil {
		return nil, "", err
	}
	s = t.begin()
	fp := gcl.Fingerprint(prog)
	t.end(layerFingerprint, s)
	return prog, fp, nil
}

// lookup builds the cache key and probes the cache.
func (rp *replayer) lookup(kind string, parts ...string) (string, any, bool) {
	t := rp.tr
	s := t.begin()
	key := cache.Key(kind, parts...)
	t.end(layerKey, s)
	s = t.begin()
	v, ok := rp.cache.Get(key)
	t.end(layerGet, s)
	rp.n.gets++
	if ok {
		rp.n.hits++
	}
	return key, v, ok
}

func (rp *replayer) compile(name string, prog *gcl.Program) (*gcl.Compiled, error) {
	t := rp.tr
	s := t.begin()
	c, err := gcl.CompileProgram(name, prog)
	t.end(layerCompile, s)
	if err == nil {
		rp.n.compiles++
		rp.n.states += int64(c.System.NumStates())
		rp.n.edges += int64(c.System.NumTransitions())
	}
	return c, err
}

// encode marshals the response as writeJSON would send it.
func (rp *replayer) encode(v any) ([]byte, error) {
	t := rp.tr
	s := t.begin()
	b, err := json.Marshal(v)
	t.end(layerEncode, s)
	return b, err
}

// store puts a computed verdict into the cache, encodes it, and appends
// it to the journal as a durable verdict event.
func (rp *replayer) store(kind, key string, v any) error {
	t := rp.tr
	s := t.begin()
	rp.cache.Put(key, v)
	t.end(layerPut, s)
	raw, err := rp.encode(v)
	if err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Kind  string          `json:"kind"`
		Key   string          `json:"key"`
		Value json.RawMessage `json:"value"`
	}{kind, key, raw})
	if err != nil {
		return err
	}
	s = t.begin()
	_, err = rp.j.Append(journal.KindVerdict, data)
	t.end(layerAppend, s)
	rp.n.appends++
	return err
}

// verdict renders a core verdict as the service does.
func verdict(v core.Verdict, sys *system.System) service.Verdict {
	out := service.Verdict{Holds: v.Holds, Relation: v.Relation, Reason: v.Reason}
	for _, st := range v.Witness {
		out.Witness = append(out.Witness, sys.StateString(st))
	}
	for _, st := range v.WitnessLoop {
		out.WitnessLoop = append(out.WitnessLoop, sys.StateString(st))
	}
	return out
}

func (rp *replayer) selfstab(r request) error {
	var req service.SelfStabRequest
	if err := json.Unmarshal(r.body, &req); err != nil {
		return err
	}
	prog, fp, err := rp.program(req.Source)
	if err != nil {
		return err
	}
	key, v, ok := rp.lookup("selfstab", fp)
	if ok {
		resp := v.(service.SelfStabResponse)
		resp.Cached = true
		_, err := rp.encode(resp)
		return err
	}
	c, err := rp.compile("program", prog)
	if err != nil {
		return err
	}
	g := mc.NewGas(context.Background(), replayBudget)
	s := rp.tr.begin()
	rep, err := core.SelfStabilizingGas(g, c.System)
	rp.tr.end(layerCore, s)
	if err != nil {
		return err
	}
	rp.n.checks++
	rp.n.gas += g.Spent()
	resp := service.SelfStabResponse{
		Program:          fp,
		States:           c.System.NumStates(),
		Verdict:          verdict(rep.Verdict, c.System),
		LegitimateStates: len(rep.Legitimate),
	}
	if err := rp.store("selfstab", key, resp); err != nil {
		return err
	}
	v2 := resp.Verdict
	if v2.Holds != r.want.holds || (r.want.witness && len(v2.Witness)+len(v2.WitnessLoop) == 0) {
		return fmt.Errorf("holds=%v witness=%d, want holds=%v", v2.Holds, len(v2.Witness)+len(v2.WitnessLoop), r.want.holds)
	}
	return nil
}

func (rp *replayer) refine(r request) error {
	var req service.RefineRequest
	if err := json.Unmarshal(r.body, &req); err != nil {
		return err
	}
	concrete, fpC, err := rp.program(req.Concrete)
	if err != nil {
		return err
	}
	abstract, fpA, err := rp.program(req.Abstract)
	if err != nil {
		return err
	}
	key, v, ok := rp.lookup("refine", fpC, fpA)
	if ok {
		resp := v.(service.RefineResponse)
		resp.Cached = true
		_, err := rp.encode(resp)
		return err
	}
	cc, err := rp.compile("concrete", concrete)
	if err != nil {
		return err
	}
	ca, err := rp.compile("abstract", abstract)
	if err != nil {
		return err
	}
	g := mc.NewGas(context.Background(), replayBudget)
	s := rp.tr.begin()
	vInit, err1 := core.RefinementInitGas(g, cc.System, ca.System, nil)
	vEvery, err2 := core.EverywhereRefinementGas(g, cc.System, ca.System, nil)
	vConv, err3 := core.ConvergenceRefinementGas(g, cc.System, ca.System, nil)
	vStab, err4 := core.StabilizingGas(g, cc.System, ca.System, nil)
	rp.tr.end(layerCore, s)
	for _, err := range []error{err1, err2, err3, err4} {
		if err != nil {
			return err
		}
	}
	rp.n.checks++
	rp.n.gas += g.Spent()
	resp := service.RefineResponse{
		Concrete:       fpC,
		Abstract:       fpA,
		States:         cc.System.NumStates(),
		RefinementInit: verdict(vInit, cc.System),
		Everywhere:     verdict(vEvery, cc.System),
		Convergence:    verdict(vConv.Verdict, cc.System),
		Stabilizing:    verdict(vStab.Verdict, cc.System),
	}
	resp.Holds = vInit.Holds && vEvery.Holds && vConv.Holds && vStab.Holds
	if err := rp.store("refine", key, resp); err != nil {
		return err
	}
	if resp.Holds != r.want.holds {
		return fmt.Errorf("holds=%v, want %v", resp.Holds, r.want.holds)
	}
	return nil
}

func (rp *replayer) lint(r request) error {
	var req service.LintRequest
	if err := json.Unmarshal(r.body, &req); err != nil {
		return err
	}
	prog, fp, err := rp.program(req.Source)
	if err != nil {
		return err
	}
	key, v, ok := rp.lookup("lint", fp, analysis.Version())
	if ok {
		resp := v.(service.LintResponse)
		resp.Cached = true
		_, err := rp.encode(resp)
		return err
	}
	s := rp.tr.begin()
	res, err := analysis.Analyze(prog, analysis.Options{
		Exact:           true,
		ExactStateLimit: 1 << 20,
		Gas:             mc.NewGas(context.Background(), replayBudget),
	})
	rp.tr.end(layerLint, s)
	if err != nil {
		return err
	}
	diags := res.Diags
	if diags == nil {
		diags = []analysis.Diag{}
	}
	resp := service.LintResponse{
		Program:         fp,
		States:          res.States,
		Exact:           res.Exact,
		AnalyzerVersion: analysis.Version(),
		Errors:          analysis.ErrorCount(diags),
		Diags:           diags,
	}
	if err := rp.store("lint", key, resp); err != nil {
		return err
	}
	if resp.Errors != 0 || !resp.Exact {
		return fmt.Errorf("lint errors=%d exact=%v", resp.Errors, resp.Exact)
	}
	return nil
}

// replayPass runs one replay over the workload's pre-written requests and
// warmup prefix (untraced, to fill the cache as the server's journal
// replay and warmup did) and then w.replay
// traced requests. The allocation pass runs on one P with the collector
// off except for an explicit collection every w.collectEvery requests,
// starting from empty sync.Pools, so that pooled buffers are reused or
// dropped at the same requests in every run.
func replayPass(w *workload, seed int64, mode int, path string) (*replayer, time.Duration, error) {
	rp, err := newReplayer(path)
	if err != nil {
		return nil, 0, err
	}
	defer rp.close()
	if w.prewrite != nil {
		pre := w.prewrite(seed)
		for i := 0; i < w.prewriteN; i++ {
			rp.serve(i, pre())
		}
	}
	next := w.gen(seed)
	for i := 0; i < w.warmup; i++ {
		rp.serve(i, next())
	}
	rp.n = replayCounts{}
	reqs := make([]request, w.replay)
	for i := range reqs {
		reqs[i] = next()
	}
	if mode == modeTime {
		rp.tr.spans = make([]span, 0, 16*len(reqs))
	}
	if mode == modeAlloc {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		// With the collection below this empties every sync.Pool: the
		// first moves pooled objects to the victim cache, the second
		// drops them.
		runtime.GC()
	}
	collect()
	rp.tr.mode = mode
	start := time.Now() //gcvet:detrand-ok the replay is timed with and without spans
	rp.tr.t0 = start
	for i, r := range reqs {
		if mode == modeAlloc && i > 0 && i%w.collectEvery == 0 {
			collect()
		}
		rp.serve(i, r)
	}
	elapsed := time.Since(start) //gcvet:detrand-ok the replay is timed with and without spans
	rp.tr.mode = modeOff
	return rp, elapsed, nil
}

// collect runs a full collection and waits for a sentinel finalizer, so
// that the finalizers the collection queued run before the next span
// opens rather than inside whichever span the scheduler picks.
func collect() {
	done := make(chan struct{})
	runtime.SetFinalizer(new([64]byte), func(*[64]byte) { close(done) })
	runtime.GC()
	<-done
}

// medianUS is the median span duration of layer l in microseconds.
func medianUS(spans []span, l layer) float64 {
	var d []int64
	for _, s := range spans {
		if s.Layer == l {
			d = append(d, s.End-s.Start)
		}
	}
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(d[(len(d)-1)/2]) / 1e3
}

// meanRootNS is the mean root span duration in nanoseconds.
func meanRootNS(spans []span) float64 {
	var sum, n int64
	for _, s := range spans {
		if s.Layer == layerRoot {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// perCall divides a total over a call count, 0 without calls.
func perCall(total float64, calls int) float64 {
	if calls == 0 {
		return 0
	}
	return total / float64(calls)
}
