package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/service"
)

// clients is the closed-loop client count: callers of checkd wait for
// their verdict before asking again, and the benchmark host has two
// cores, so two callers keep both busy without building a queue.
const clients = 2

// Outcome tags of one request, as the client sees them.
const (
	tagLocal     = "local"     // computed by the entry replica
	tagForwarded = "forwarded" // computed by the owner behind a forward hop
	tagCached    = "cached"    // answered from a verdict cache
)

// outcome is one request as the client saw it.
type outcome struct {
	start time.Duration // send time, from the start of the run's clock
	lat   time.Duration // send to the last byte of the response
	ok    bool          // 200 with the expected answer
	// forwarded marks an answer that crossed the fleet's forward hop;
	// tag says who computed it.
	forwarded bool
	tag       string
}

// loop sends a generated request stream to checkd from a fixed set of
// closed-loop clients.
type loop struct {
	addrs []string
	chk   *checker
	clock time.Time
	hc    [clients]*http.Client

	mu   sync.Mutex
	next func() request
}

func newLoop(addrs []string, next func() request, chk *checker, clock time.Time) *loop {
	l := &loop{addrs: addrs, chk: chk, clock: clock, next: next}
	for i := range l.hc {
		l.hc[i] = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: replicas,
			DisableCompression:  true,
		}}
	}
	return l
}

// close drops the clients' idle connections, which ends their goroutines.
func (l *loop) close() {
	for _, c := range l.hc {
		c.CloseIdleConnections()
	}
}

// run drives the stream until count requests have been sent (count > 0)
// or until d has elapsed (d > 0), and returns every outcome in
// completion order per client.
func (l *loop) run(count int, d time.Duration) []outcome {
	begin := time.Now() //gcvet:detrand-ok the run window is wall-clock by definition
	sent := 0
	take := func() (request, bool) {
		l.mu.Lock()
		defer l.mu.Unlock()
		if count > 0 && sent >= count {
			return request{}, false
		}
		if d > 0 && time.Since(begin) >= d { //gcvet:detrand-ok the run window is wall-clock by definition
			return request{}, false
		}
		sent++
		return l.next(), true
	}
	var wg sync.WaitGroup
	outs := make([][]outcome, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				r, ok := take()
				if !ok {
					return
				}
				outs[i] = append(outs[i], l.send(l.hc[i], r))
			}
		}(i)
	}
	wg.Wait()
	var all []outcome
	for _, o := range outs {
		all = append(all, o...)
	}
	return all
}

// send posts one request and checks the response.
func (l *loop) send(c *http.Client, r request) outcome {
	url := "http://" + l.addrs[r.entry%len(l.addrs)] + r.path()
	start := time.Since(l.clock) //gcvet:detrand-ok latency is measured from the send
	status, body, forwarded, err := post(c, url, r.body)
	o := outcome{start: start, lat: time.Since(l.clock) - start} //gcvet:detrand-ok latency is measured from the send
	if err != nil {
		l.chk.fail(fmt.Errorf("%s: %w", r.program, err), false)
		return o
	}
	if status != http.StatusOK {
		l.chk.fail(fmt.Errorf("%s: status %d: %s", r.program, status, bytes.TrimSpace(body)), false)
		return o
	}
	cached, err := l.chk.check(r, body)
	if err != nil {
		l.chk.fail(err, true)
		return o
	}
	o.ok, o.forwarded = true, forwarded
	switch {
	case cached:
		o.tag = tagCached
	case forwarded:
		o.tag = tagForwarded
	default:
		o.tag = tagLocal
	}
	return o
}

// post sends one JSON body and reads the whole response.
func post(c *http.Client, url string, body []byte) (status int, resp []byte, forwarded bool, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := c.Do(req)
	if err != nil {
		return 0, nil, false, err
	}
	defer res.Body.Close()
	resp, err = io.ReadAll(res.Body)
	if err != nil {
		return 0, nil, false, err
	}
	return res.StatusCode, resp, res.Header.Get("X-Fleet-Owner") != "", nil
}

// checker verifies responses against the expected answers and keeps the
// first computed response per program, which every later cached
// response for that program must equal.
type checker struct {
	// unique marks workloads whose programs never repeat, where a cached
	// response can only be wrong and nothing needs remembering.
	unique bool

	mu    sync.Mutex
	first map[string][sha256.Size]byte
	wrong int
	errs  []error
}

func newChecker(unique bool) *checker {
	return &checker{unique: unique, first: make(map[string][sha256.Size]byte)}
}

// maxReportedErrors bounds the failure descriptions kept for stderr.
const maxReportedErrors = 5

// fail records one failed request; wrong marks a wrong answer rather than
// a refused or lost request.
func (c *checker) fail(err error, wrong bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if wrong {
		c.wrong++
	}
	if len(c.errs) < maxReportedErrors {
		c.errs = append(c.errs, err)
	}
}

// wrongAnswers returns the number of wrong answers recorded so far.
func (c *checker) wrongAnswers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wrong
}

// cachedField starts the two trailing response fields, cached and
// elapsed_us, which differ between a computed and a cached answer.
var cachedField = []byte(`,"cached":`)

// check verifies one 200 response and reports whether it was served
// from a cache.
func (c *checker) check(r request, body []byte) (cached bool, err error) {
	if err := verify(r, body); err != nil {
		return false, err
	}
	cut := bytes.LastIndex(body, cachedField)
	if cut < 0 {
		return false, fmt.Errorf("%s: response has no cached field: %s", r.program, body)
	}
	cached = bytes.HasPrefix(body[cut+len(cachedField):], []byte("true"))
	if c.unique {
		if cached {
			return true, fmt.Errorf("%s: first-seen program answered from cache", r.program)
		}
		return false, nil
	}
	// A digest keeps the driver's own memory, which peak_rss_mb counts,
	// small on workloads with many distinct programs.
	verdict := sha256.Sum256(body[:cut])
	c.mu.Lock()
	defer c.mu.Unlock()
	first, seen := c.first[r.program]
	switch {
	case !seen:
		c.first[r.program] = verdict
	case first != verdict:
		return cached, fmt.Errorf("%s: response %s differs from the first computed one", r.program, body[:cut])
	}
	return cached, nil
}

// verify compares one response with the request's expected answer.
func verify(r request, body []byte) error {
	switch r.kind {
	case "selfstab":
		var resp service.SelfStabResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("%s: %w", r.program, err)
		}
		v := resp.Verdict
		if v.Holds != r.want.holds {
			return fmt.Errorf("%s: self-stabilization holds=%v, want %v (%s)", r.program, v.Holds, r.want.holds, v.Reason)
		}
		if r.want.witness && len(v.Witness)+len(v.WitnessLoop) == 0 {
			return fmt.Errorf("%s: failing verdict carries no witness", r.program)
		}
	case "refine":
		var resp service.RefineResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("%s: %w", r.program, err)
		}
		if resp.Holds != r.want.holds {
			return fmt.Errorf("%s: refinement holds=%v, want %v", r.program, resp.Holds, r.want.holds)
		}
	case "lint":
		var resp service.LintResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("%s: %w", r.program, err)
		}
		if resp.Errors != 0 || !resp.Exact {
			return fmt.Errorf("%s: lint errors=%d exact=%v, want 0 errors from the exact tier", r.program, resp.Errors, resp.Exact)
		}
	default:
		return fmt.Errorf("%s: unknown kind %q", r.program, r.kind)
	}
	return nil
}

// e2e is the end-to-end summary of one measured window.
type e2e struct {
	attempted, failed int
	// minSamples is the smallest number of latencies any slice's
	// percentiles are taken from.
	minSamples int
	// slices describes each slice of the window, for stderr.
	slices     []string
	throughput float64 // successful requests per second
	// p99 is printed on stderr only: on a host shared with other
	// machines it follows the CPU the host takes away at twice the
	// sensitivity of p50 and p90, too much to gate a change on.
	p50, p90, p99 time.Duration
	meanOK        time.Duration // over every successful request of the window
}

// The measured window is cut into windowParts equal slices by send time.
// Throughput and each latency percentile are computed per slice, and the
// reported figure is the median over the slices. The benchmark host's
// cores are shared with other machines, and how much CPU they leave this
// one changes from second to second: a median over slices moves with the
// typical slice, not with the few that the host slowed or the GC phase
// happened to favour. A slowdown of checkd's own that recurs in most
// slices still shows.
const windowParts = 10

// stalled stands for the latency of a failed request, and for every
// percentile of a slice in which no request was sent: it misses every
// latency limit.
const stalled = time.Duration(1 << 62)

// summarize computes the window's metrics; from is the window's start
// on the run's clock. A failed request counts as missing every latency
// limit in its slice.
func summarize(outs []outcome, from, window time.Duration) e2e {
	s := e2e{attempted: len(outs)}
	parts := make([][]time.Duration, windowParts)
	oks := make([]int, windowParts)
	var sum time.Duration
	for _, o := range outs {
		i := int(int64(o.start-from) * windowParts / int64(window))
		i = min(max(i, 0), windowParts-1)
		if !o.ok {
			s.failed++
			parts[i] = append(parts[i], stalled)
			continue
		}
		oks[i]++
		sum += o.lat
		parts[i] = append(parts[i], o.lat)
	}
	if ok := s.attempted - s.failed; ok > 0 {
		s.meanOK = sum / time.Duration(ok)
	}
	sliceSeconds := window.Seconds() / windowParts
	var thr, p50, p90, p99 []float64
	s.minSamples = len(outs)
	for i, l := range parts {
		sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
		s.minSamples = min(s.minSamples, len(l))
		s.slices = append(s.slices, fmt.Sprintf("%d/%.4f/%.4f", len(l), ms(percentile(l, 0.50)), ms(percentile(l, 0.99))))
		thr = append(thr, float64(oks[i])/sliceSeconds)
		p50 = append(p50, float64(percentile(l, 0.50)))
		p90 = append(p90, float64(percentile(l, 0.90)))
		p99 = append(p99, float64(percentile(l, 0.99)))
	}
	s.throughput = median(thr)
	s.p50 = time.Duration(median(p50))
	s.p90 = time.Duration(median(p90))
	s.p99 = time.Duration(median(p99))
	return s
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return stalled
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}
