package main

import (
	"strings"
	"testing"
	"time"
)

// steadyWindow is a 10 s window with one 1 ms request sent every 10 ms.
func steadyWindow() []outcome {
	var outs []outcome
	for t := time.Duration(0); t < 10*time.Second; t += 10 * time.Millisecond {
		outs = append(outs, outcome{start: t, lat: time.Millisecond, ok: true})
	}
	return outs
}

func TestSummarizeIgnoresOneBurst(t *testing.T) {
	outs := steadyWindow()
	calm := summarize(outs, 0, 10*time.Second)
	// A burst in the first second: half as many requests, each 50 ms.
	var burst []outcome
	for i, o := range outs {
		if o.start < time.Second {
			if i%2 == 1 {
				continue
			}
			o.lat = 50 * time.Millisecond
		}
		burst = append(burst, o)
	}
	got := summarize(burst, 0, 10*time.Second)
	if got.throughput != calm.throughput || got.p50 != calm.p50 || got.p90 != calm.p90 || got.p99 != calm.p99 {
		t.Fatalf("burst moved the figures: calm %+v, burst %+v", calm, got)
	}
	if calm.throughput != 100 || calm.p99 != time.Millisecond {
		t.Fatalf("calm window: throughput %v p99 %v, want 100/s and 1ms", calm.throughput, calm.p99)
	}
}

func TestSummarizeCountsEveryFailure(t *testing.T) {
	outs := steadyWindow()
	for i := 0; i < len(outs); i += 50 {
		outs[i].ok = false // 2 in every slice
	}
	s := summarize(outs, 0, 10*time.Second)
	if s.attempted != 1000 || s.failed != 20 {
		t.Fatalf("attempted %d failed %d, want 1000 and 20", s.attempted, s.failed)
	}
	// The failures sort above every success, so more than 1% of every
	// slice's latency sample misses any limit.
	if s.p99 < time.Hour {
		t.Fatalf("p99 %v with 2%% of every slice failed, want a failure", s.p99)
	}
	if s.throughput != 98 {
		t.Fatalf("throughput %v, want the 98 successes per second", s.throughput)
	}
}

func TestSummarizeStalledSlicesMissLimits(t *testing.T) {
	var outs []outcome
	for _, o := range steadyWindow() {
		if o.start >= 6*time.Second {
			outs = append(outs, o)
		}
	}
	// Six slices of ten see no request at all: the median is taken over
	// mostly empty slices, which miss every latency limit.
	s := summarize(outs, 0, 10*time.Second)
	if !strings.HasPrefix(s.slices[0], "0/") || s.throughput != 0 || s.p50 < time.Hour {
		t.Fatalf("slices %v throughput %v p50 %v, want empty slices to count as stalled", s.slices, s.throughput, s.p50)
	}
}
