// Command perfbench is checkd's benchmark. It starts checkd in this
// process (one service.Server on a loopback listener, or a 3-replica
// fleet), drives one named workload in a closed loop from two clients,
// checks every answer, and prints the end-to-end metrics. With --trace 1
// it measures the same way and then replays the workload's requests
// through the layers checkd's handlers call, printing per-layer metrics
// and writing the spans to <out>/trace/.
//
//	bash perfbench/run.sh --workload cold-ring --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 1 when any
// answer was wrong or the run could not be made, 2 on bad flags.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// workload is one traffic mix and the server it runs against.
type workload struct {
	name string
	gen  func(seed int64) func() request
	// fleet runs the workload against a 3-replica fleet instead of one
	// server with a file journal.
	fleet bool
	// unique marks streams in which no program repeats.
	unique bool
	// warmup is the number of requests each set-up sends.
	warmup int
	// prewrite, when set, yields the requests whose verdicts are written
	// into the journal that each set-up replays; prewriteN is their count.
	prewrite  func(seed int64) func() request
	prewriteN int
	// replay is the number of requests the traced replay runs.
	replay int
	// collectEvery spaces the allocation pass's collections; it bounds
	// the heap that pass grows to about 100 MiB.
	collectEvery int
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json records
// why each exists.
var workloads = []*workload{
	{name: "cold-ring", gen: coldRing, unique: true, prewrite: smallPrewrite, prewriteN: 3 * prewritePrograms,
		warmup: len(ringBlock), replay: 2 * len(ringBlock), collectEvery: 8},
	{name: "fleet3-miss", gen: fleetMiss, fleet: true, warmup: 300, replay: 3000, collectEvery: 1000},
}

// setupRepeats is how many times an untraced run sets checkd up; setup_s
// is their median. Only the last set-up serves the measured window.
const setupRepeats = 25

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced replay instead of end-to-end metrics")
	out := fs.String("out", ".bench_build", "directory for scratch files, traces and run history")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "perfbench: --seconds must be at least 1, got %d\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	b := &bench{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, out: *out, log: stderr}
	res, err := b.run()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// workloadByName returns the named workload, nil for an unknown name.
func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, " | ")
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	w      *workload
	seed   int64
	window time.Duration
	traced bool
	out    string
	log    io.Writer

	dir   string // this run's scratch directory, removed at the end
	chk   *checker
	clock time.Time
}

func (b *bench) run() (*result, error) {
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b.dir = dir
	b.chk = newChecker(b.w.unique)
	b.clock = time.Now() //gcvet:detrand-ok the run's clock for latency and span timestamps

	startJournal := ""
	if b.w.prewrite != nil {
		startJournal = filepath.Join(dir, "prewritten.wal")
		if err := b.prewrite(startJournal); err != nil {
			return nil, fmt.Errorf("pre-writing the journal: %w", err)
		}
	}
	repeats := setupRepeats
	if b.traced {
		repeats = 1
	}
	var setups []float64
	var tg *target
	var lp *loop
	for i := 0; i < repeats; i++ {
		if tg != nil {
			lp.close()
			tg.stop()
		}
		var d time.Duration
		tg, lp, d, err = b.setup(i, startJournal)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, d.Seconds())
	}

	var fz0 fleetCounters
	if b.w.fleet {
		fz0 = fetchFleetz(tg.addrs)
	}
	var samp *sampler
	if b.traced {
		samp = startSampler(tg.addrs)
	}
	var peaks chan []float64
	stopRSS := make(chan struct{})
	if !b.traced {
		b.resetPeakRSS()
		peaks = make(chan []float64, 1)
		go func() { peaks <- b.slicePeaks(stopRSS) }()
	}
	steal0, total0 := hostCPU()
	from := time.Since(b.clock) //gcvet:detrand-ok the measured window is wall-clock by definition
	outs := lp.run(0, b.window)
	close(stopRSS)
	steal, total := hostCPU()
	var gauges serverGauges
	if samp != nil {
		gauges = samp.stop()
	}
	var fz fleetCounters
	if b.w.fleet {
		fz = fetchFleetz(tg.addrs).minus(fz0)
	}
	lp.close()
	tg.stop()

	s := summarize(outs, from, b.window)
	wrong := b.chk.wrongAnswers()
	res := &result{Correct: wrong == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(b.log, "perfbench: %s seed=%d attempted=%d slice_samples_min=%d beyond_p90=%d latency_p99_ms=%.4f beyond_p99=%d failed=%d wrong=%d host_steal=%.1f%% setups_s=%v\n",
		b.w.name, b.seed, s.attempted, s.minSamples, beyond(s.minSamples, 0.90), ms(s.p99), beyond(s.minSamples, 0.99), s.failed, wrong,
		100*float64(steal-steal0)/float64(max(total-total0, 1)), setups)
	fmt.Fprintf(b.log, "perfbench: window slices (requests/p50_ms/p99_ms): %s\n", strings.Join(s.slices, " "))
	for _, err := range b.chk.errs {
		fmt.Fprintf(b.log, "perfbench: failure: %v\n", err)
	}
	if s.attempted == 0 {
		return nil, errors.New("no request completed in the measured window")
	}
	if b.w.fleet {
		b.recordFleetz(fz)
	}
	if !b.traced {
		rss := <-peaks
		if len(rss) == 0 {
			return nil, errors.New("peak RSS was not read")
		}
		res.Metrics["throughput_rps"] = metric{s.throughput, "1/s"}
		res.Metrics["latency_p50_ms"] = metric{ms(s.p50), "ms"}
		res.Metrics["latency_p90_ms"] = metric{ms(s.p90), "ms"}
		res.Metrics["ok_ratio"] = metric{float64(s.attempted-s.failed) / float64(s.attempted), "ratio"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		fmt.Fprintf(b.log, "perfbench: slice peak RSS MiB: %v\n", rss)
		res.Metrics["peak_rss_mb"] = metric{mean(rss), "MiB"}
		return res, nil
	}
	layers, replayWrong, err := b.layers(s, outs, gauges, fz, startJournal)
	if err != nil {
		return nil, err
	}
	res.Metrics = layers
	res.Correct = res.Correct && replayWrong == 0
	return res, nil
}

// prewrite fills the journal at path with the verdicts of the
// workload's prewrite requests.
func (b *bench) prewrite(path string) error {
	tg, err := startServer(path)
	if err != nil {
		return err
	}
	lp := newLoop(tg.addrs, b.w.prewrite(b.seed), b.chk, b.clock)
	lp.run(b.w.prewriteN, 0)
	lp.close()
	tg.stop()
	return nil
}

// setup starts checkd and warms it up; the returned duration runs from
// constructing the server(s) to the end of the warmup, so it covers
// journal replay and fleet readiness too. Set-up i replays its own copy
// of startJournal when one is given.
func (b *bench) setup(i int, startJournal string) (*target, *loop, time.Duration, error) {
	var jp string
	if !b.w.fleet {
		jp = filepath.Join(b.dir, "setup-"+strconv.Itoa(i)+".wal")
		if startJournal != "" {
			if err := copyFile(jp, startJournal); err != nil {
				return nil, nil, 0, err
			}
		}
	}
	start := time.Now() //gcvet:detrand-ok set-up time is wall-clock by definition
	var tg *target
	var err error
	if b.w.fleet {
		tg, err = startFleet()
	} else {
		tg, err = startServer(jp)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	lp := newLoop(tg.addrs, b.w.gen(b.seed), b.chk, b.clock)
	lp.run(b.w.warmup, 0)
	return tg, lp, time.Since(start), nil //gcvet:detrand-ok set-up time is wall-clock by definition
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// beyond is the number of samples above the nearest-rank q-percentile.
func beyond(samples int, q float64) int {
	return samples - int(math.Ceil(q*float64(samples)))
}

// median of a non-empty sample.
func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// resetPeakRSS returns the memory of earlier set-ups to the system and
// resets the process's peak resident set, so that peak_rss_mb covers the
// measured window's server only.
func (b *bench) resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	b.clearPeakRSS()
}

// clearPeakRSS resets the process's peak resident set (VmHWM) to its
// current resident set. Where the kernel refuses, every later reading is
// the peak of the whole process, and the run says so on stderr.
func (b *bench) clearPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(b.log, "perfbench: peak RSS not reset, it includes set-up: %v\n", err)
	}
}

// slicePeaks reads the peak resident set at the end of every slice of
// the measured window, resetting it after each reading, and once more
// when stop closes. peak_rss_mb is their mean. checkd's resident set
// grows through the window with its cache and in-memory journal, under
// the collector's sawtooth; a single peak is one point on that sawtooth,
// and the mean over the slices repeats more closely from run to run.
func (b *bench) slicePeaks(stop <-chan struct{}) []float64 {
	t := time.NewTicker(b.window / windowParts)
	defer t.Stop()
	var peaks []float64
	for {
		var done bool
		select {
		case <-t.C:
		case <-stop:
			done = true
		}
		p, err := peakRSSMB()
		if err != nil {
			fmt.Fprintf(b.log, "perfbench: %v\n", err)
			return peaks
		}
		peaks = append(peaks, p)
		if done {
			return peaks
		}
		b.clearPeakRSS()
	}
}

// mean of a non-empty sample.
func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("reading peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("reading peak RSS: no VmHWM line in /proc/self/status")
}

// hostCPU reads the host's CPU time counters from /proc/stat: the time
// stolen from this machine's virtual CPUs by other guests, and the total.
// Their change over the window is printed with each run, because the
// figures of a run follow how much CPU the host took away during it.
// Both are 0 where /proc/stat cannot be read.
func hostCPU() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
