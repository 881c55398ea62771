package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/service"
)

// perLayer lists the per-layer metrics, each with the end-to-end metric
// and workload it should move. BENCHMARK.json's per_layer section
// carries the same names, units and directions.
var perLayer = []struct {
	name, unit, better, moves string
}{
	{"gcl.parse_us", "us", "lower", "latency_p50_ms on fleet3-miss"},
	{"gcl.parse_allocs", "count", "lower", "latency_p50_ms on fleet3-miss"},
	{"gcl.fingerprint_us", "us", "lower", "latency_p50_ms on fleet3-miss"},
	{"gcl.fingerprint_allocs", "count", "lower", "latency_p50_ms on fleet3-miss"},
	{"gcl.compile_us", "us", "lower", "throughput_rps and latency_p50_ms on cold-ring"},
	{"gcl.compile_allocs", "count", "lower", "throughput_rps and latency_p50_ms on cold-ring"},
	{"gcl.compile_bytes", "B", "lower", "peak_rss_mb and throughput_rps on cold-ring"},
	{"gcl.states", "count", "lower", "throughput_rps on cold-ring"},
	{"gcl.edges", "count", "lower", "throughput_rps on cold-ring"},
	{"core.check_us", "us", "lower", "throughput_rps and latency_p90_ms on cold-ring"},
	{"core.check_allocs", "count", "lower", "throughput_rps and latency_p90_ms on cold-ring"},
	{"core.gas_spent", "count", "lower", "throughput_rps and latency_p90_ms on cold-ring"},
	{"analysis.lint_us", "us", "lower", "latency_p90_ms on cold-ring"},
	{"analysis.lint_allocs", "count", "lower", "latency_p90_ms on cold-ring"},
	{"cache.get_us", "us", "lower", "latency_p50_ms on fleet3-miss"},
	{"cache.hit_ratio", "ratio", "higher", "latency_p50_ms on fleet3-miss"},
	{"cache.put_us", "us", "lower", "throughput_rps on cold-ring"},
	{"service.encode_us", "us", "lower", "latency_p90_ms on cold-ring"},
	{"service.queue_depth_max", "count", "lower", "latency_p90_ms on cold-ring"},
	{"service.outside_share", "ratio", "lower", "latency_p50_ms on fleet3-miss"},
	{"journal.append_us", "us", "lower", "latency_p50_ms on cold-ring, one durable append per request"},
	{"journal.batch_size_p50", "count", "higher", "throughput_rps and latency_p50_ms on cold-ring, whose every request appends one durable and two async events"},
	{"journal.bytes_per_event", "B", "lower", "latency_p50_ms on cold-ring"},
	{"journal.replay_s", "s", "lower", "setup_s on cold-ring, which replays a pre-written journal"},
	{"fleet.forward_ratio", "ratio", "lower", "latency_p50_ms on fleet3-miss; zero on one replica"},
	{"fleet.forward_hop_us", "us", "lower", "latency_p50_ms on fleet3-miss; zero on one replica"},
	{"fleet.local_fallbacks", "count", "lower", "latency_p50_ms on fleet3-miss; zero on one replica"},
	{"fleet.hedges_fired", "count", "lower", "latency_p90_ms on fleet3-miss, and the ungated p99 on stderr; zero on one replica"},
	{"fleet.hedge_waste_ratio", "ratio", "lower", "latency_p90_ms on fleet3-miss, and the ungated p99 on stderr; zero on one replica"},
	{"fleet.breaker_opens", "count", "lower", "latency_p90_ms on fleet3-miss, and the ungated p99 on stderr; zero on one replica"},
	{"fleet.ae_pulled", "count", "lower", "throughput_rps and latency_p90_ms on fleet3-miss; zero on one replica"},
	{"trace.overhead_share", "ratio", "lower", "none: the replay's cost of tracing, to read the spans by"},
}

// serverGauges are read from /metrics during the measured window.
type serverGauges struct {
	queueDepthMax int64
	batchP50      float64 // mean over the replicas that journal
}

// samplePeriod paces the /metrics sampler.
const samplePeriod = 20 * time.Millisecond

// sampler polls every replica's /metrics while the window runs.
type sampler struct {
	addrs []string
	hc    *http.Client
	stopc chan struct{}
	done  chan serverGauges
}

func startSampler(addrs []string) *sampler {
	s := &sampler{addrs: addrs, hc: &http.Client{},
		stopc: make(chan struct{}), done: make(chan serverGauges, 1)}
	go s.loop()
	return s
}

func (s *sampler) loop() {
	var g serverGauges
	t := time.NewTicker(samplePeriod)
	defer t.Stop()
	for {
		select {
		case <-s.stopc:
			var sum float64
			var n int
			for _, a := range s.addrs {
				var snap service.MetricsSnapshot
				if getJSON(s.hc, "http://"+a+"/metrics", &snap) == nil && snap.Journal != nil {
					sum += snap.Journal.BatchP50
					n++
				}
			}
			if n > 0 {
				g.batchP50 = sum / float64(n)
			}
			s.done <- g
			return
		case <-t.C:
			for _, a := range s.addrs {
				var snap service.MetricsSnapshot
				if getJSON(s.hc, "http://"+a+"/metrics", &snap) == nil && snap.Queue.Depth > g.queueDepthMax {
					g.queueDepthMax = snap.Queue.Depth
				}
			}
		}
	}
}

// stop ends the sampler and returns what it saw.
func (s *sampler) stop() serverGauges {
	close(s.stopc)
	g := <-s.done
	s.hc.CloseIdleConnections()
	return g
}

// fleetCounters are fleet work and waste counters summed over the
// replicas' /fleetz.
type fleetCounters map[string]int64

func fetchFleetz(addrs []string) fleetCounters {
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	c := fleetCounters{}
	for _, a := range addrs {
		var st fleet.FleetzStatus
		if err := getJSON(hc, "http://"+a+"/fleetz", &st); err != nil {
			c["fetch_errors"]++
			continue
		}
		c["forwards"] += st.Forwards
		c["forward_errors"] += st.ForwardErrors
		c["local_fallbacks"] += st.LocalFallbacks
		c["ae_rounds"] += st.AERounds
		c["ae_pulled"] += st.AEPulled
		c["breaker_opens"] += st.BreakerOpens
		c["breaker_skips"] += st.BreakerSkips
		c["hedges_fired"] += st.HedgesFired
		c["hedge_local_wins"] += st.HedgeLocalWins
		c["budget_exhausted"] += st.BudgetExhausted
	}
	return c
}

func (c fleetCounters) minus(base fleetCounters) fleetCounters {
	d := fleetCounters{}
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

// fleetHistory is the file every fleet3-miss run appends its window's
// /fleetz counters to, so their run-to-run spread can be read.
const fleetHistory = "fleetz-runs.jsonl"

// fleetRecord is one run's line in the fleet counter history.
type fleetRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Build identifies the driver binary, and with it the checkd code it
	// links; Traced marks a run whose /metrics sampler added load.
	Build    string        `json:"build"`
	Traced   bool          `json:"traced"`
	Counters fleetCounters `json:"counters"`
}

// buildID hashes the running executable, so records of one build of
// the code can be told from those of another in the shared history.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// recordFleetz prints this run's fleet counters, appends them to the
// history, and prints each counter's spread, as the quartile distance
// over the median, over the recorded runs of the same build and mode.
func (b *bench) recordFleetz(c fleetCounters) {
	build, err := buildID()
	if err != nil {
		fmt.Fprintf(b.log, "perfbench: fleetz history: %v\n", err)
		return
	}
	line, err := json.Marshal(fleetRecord{b.w.name, b.seed, build, b.traced, c})
	if err != nil {
		return
	}
	fmt.Fprintf(b.log, "perfbench: fleetz %s\n", line)
	path := filepath.Join(b.out, fleetHistory)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintf(b.log, "perfbench: fleetz history: %v\n", err)
		return
	}
	_, werr := f.Write(append(line, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(b.log, "perfbench: fleetz history: %v\n", werr)
		return
	}
	hist, err := os.Open(path)
	if err != nil {
		return
	}
	defer hist.Close()
	series := map[string][]float64{}
	runs := 0
	sc := bufio.NewScanner(hist)
	for sc.Scan() {
		var rec fleetRecord
		if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Build != build || rec.Traced != b.traced {
			continue
		}
		runs++
		for k, v := range rec.Counters {
			series[k] = append(series[k], float64(v))
		}
	}
	keys := make([]string, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		q1, med, q3 := quartiles(series[k])
		spread := "n/a"
		if med != 0 {
			spread = strconv.FormatFloat((q3-q1)/med, 'f', 3, 64)
		}
		fmt.Fprintf(b.log, "perfbench: fleetz spread over %d runs of build %s traced=%v: %s median=%g q1=%g q3=%g iqr/median=%s\n",
			runs, build, b.traced, k, med, q1, q3, spread)
	}
}

// quartiles computes what Python's statistics.quantiles(v, n=4) gives
// (the exclusive method); a single value is its own quartiles.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// layers runs the replay passes and derives the per-layer metrics; the
// end-to-end outcomes, gauges and fleet counters come from the traced
// run's measured window.
func (b *bench) layers(s e2e, outs []outcome, g serverGauges, fz fleetCounters, startJournal string) (map[string]metric, int, error) {
	// The untraced pass runs before and after the traced one, so the
	// overhead compares like with like whatever the order effects.
	_, off1, err := replayPass(b.w, b.seed, modeOff, filepath.Join(b.dir, "replay-off1.wal"))
	if err != nil {
		return nil, 0, err
	}
	tp, tElapsed, err := replayPass(b.w, b.seed, modeTime, filepath.Join(b.dir, "replay-time.wal"))
	if err != nil {
		return nil, 0, err
	}
	_, off2, err := replayPass(b.w, b.seed, modeOff, filepath.Join(b.dir, "replay-off2.wal"))
	if err != nil {
		return nil, 0, err
	}
	ap, _, err := replayPass(b.w, b.seed, modeAlloc, filepath.Join(b.dir, "replay-alloc.wal"))
	if err != nil {
		return nil, 0, err
	}
	if tp.n.firstWrong != nil {
		fmt.Fprintf(b.log, "perfbench: failure: %v\n", tp.n.firstWrong)
	}
	replayS, err := b.journalReplay(startJournal)
	if err != nil {
		return nil, 0, err
	}

	m := map[string]metric{}
	put := func(name string, v float64) {
		for _, pl := range perLayer {
			if pl.name == name {
				m[name] = metric{v, pl.unit}
				return
			}
		}
		panic("perfbench: undeclared per-layer metric " + name)
	}
	spans, n, a := tp.tr.spans, tp.n, ap.tr
	allocs := func(l layer) float64 { return perCall(float64(a.allocs[l]), a.calls[l]) }
	put("gcl.parse_us", medianUS(spans, layerParse))
	put("gcl.parse_allocs", allocs(layerParse))
	put("gcl.fingerprint_us", medianUS(spans, layerFingerprint))
	put("gcl.fingerprint_allocs", allocs(layerFingerprint))
	put("gcl.compile_us", medianUS(spans, layerCompile))
	put("gcl.compile_allocs", allocs(layerCompile))
	put("gcl.compile_bytes", perCall(float64(a.allocBytes[layerCompile]), a.calls[layerCompile]))
	put("gcl.states", perCall(float64(n.states), n.compiles))
	put("gcl.edges", perCall(float64(n.edges), n.compiles))
	put("core.check_us", medianUS(spans, layerCore))
	put("core.check_allocs", allocs(layerCore))
	put("core.gas_spent", perCall(float64(n.gas), n.checks))
	put("analysis.lint_us", medianUS(spans, layerLint))
	put("analysis.lint_allocs", allocs(layerLint))
	put("cache.get_us", medianUS(spans, layerGet))
	put("cache.hit_ratio", perCall(float64(n.hits), n.gets))
	put("cache.put_us", medianUS(spans, layerPut))
	put("service.encode_us", medianUS(spans, layerEncode))
	put("service.queue_depth_max", float64(g.queueDepthMax))
	outside := 0.0
	if s.meanOK > 0 {
		outside = 1 - meanRootNS(spans)/float64(s.meanOK)
	}
	put("service.outside_share", outside)
	put("journal.append_us", medianUS(spans, layerAppend))
	put("journal.batch_size_p50", g.batchP50)
	put("journal.bytes_per_event", perCall(float64(tp.journalBytes()), n.appends))
	put("journal.replay_s", replayS)

	var forwarded int
	var fwdMiss, localMiss []time.Duration
	for _, o := range outs {
		if o.forwarded {
			forwarded++
		}
		switch o.tag {
		case tagForwarded:
			fwdMiss = append(fwdMiss, o.lat)
		case tagLocal:
			localMiss = append(localMiss, o.lat)
		}
	}
	hop := 0.0
	if b.w.fleet && len(fwdMiss) > 0 && len(localMiss) > 0 {
		hop = float64(medianDuration(fwdMiss)-medianDuration(localMiss)) / 1e3
	}
	put("fleet.forward_ratio", perCall(float64(forwarded), len(outs)))
	put("fleet.forward_hop_us", hop)
	put("fleet.local_fallbacks", float64(fz["local_fallbacks"]))
	put("fleet.hedges_fired", float64(fz["hedges_fired"]))
	put("fleet.hedge_waste_ratio", perCall(float64(fz["hedges_fired"]), int(fz["forwards"])))
	put("fleet.breaker_opens", float64(fz["breaker_opens"]))
	put("fleet.ae_pulled", float64(fz["ae_pulled"]))
	put("trace.overhead_share", 2*tElapsed.Seconds()/(off1+off2).Seconds()-1)

	for _, pl := range perLayer {
		fmt.Fprintf(b.log, "perfbench: %-26s %14.6g %-5s should move %s\n", pl.name, m[pl.name].Value, pl.unit, pl.moves)
	}
	if err := b.writeTrace(spans, outs); err != nil {
		return nil, 0, err
	}
	return m, tp.n.wrong + ap.n.wrong, nil
}

func medianDuration(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

// journalReplayRepeats is how many times journal.replay_s is measured;
// it reports the median.
const journalReplayRepeats = 5

// journalReplay times opening the journal a set-up opens: the
// pre-written one when the workload has one, else an empty file.
func (b *bench) journalReplay(startJournal string) (float64, error) {
	var times []float64
	for i := 0; i < journalReplayRepeats; i++ {
		path := filepath.Join(b.dir, "replay-open-"+strconv.Itoa(i)+".wal")
		if startJournal != "" {
			if err := copyFile(path, startJournal); err != nil {
				return 0, err
			}
		}
		start := time.Now() //gcvet:detrand-ok replay time is wall-clock by definition
		fb, err := journal.OpenFile(path)
		if err != nil {
			return 0, err
		}
		j, err := journal.Open(fb, journal.Options{})
		if err != nil {
			fb.Close()
			return 0, err
		}
		times = append(times, time.Since(start).Seconds()) //gcvet:detrand-ok replay time is wall-clock by definition
		j.Close()
		fb.Close()
	}
	return median(times), nil
}

// writeTrace writes the replay's spans and the measured window's client
// spans to <out>/trace/<workload>-seed<seed>.json.
func (b *bench) writeTrace(spans []span, outs []outcome) error {
	type clientSpan struct {
		Start int64  `json:"start_ns"`
		End   int64  `json:"end_ns"`
		OK    bool   `json:"ok"`
		Tag   string `json:"tag"`
	}
	client := make([]clientSpan, len(outs))
	for i, o := range outs {
		client[i] = clientSpan{int64(o.start), int64(o.start + o.lat), o.ok, o.tag}
	}
	names := []string{"request"} // layer -1, the root
	names = append(names, layerNames[:]...)
	doc, err := json.Marshal(struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Layers   []string     `json:"layers"`
		Note     string       `json:"note"`
		Spans    []span       `json:"spans"`
		Client   []clientSpan `json:"client"`
	}{b.w.name, b.seed, names,
		"spans[].layer indexes layers from -1; a root span's self time is its duration minus its children's",
		spans, client})
	if err != nil {
		return err
	}
	dir := filepath.Join(b.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.w.name, b.seed)), doc, 0o644)
}
