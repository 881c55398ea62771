package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/gcl"
	"repro/internal/service"
)

// draw takes the first n requests of a workload's stream.
func draw(w *workload, seed int64, n int) []request {
	next := w.gen(seed)
	out := make([]request, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, w := range workloads {
		a, b := draw(w, 42, 300), draw(w, 42, 300)
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) || a[i].entry != b[i].entry || a[i].want != b[i].want {
				t.Fatalf("%s: request %d differs between two streams of seed 42", w.name, i)
			}
		}
	}
}

func TestOtherSeedOtherBodies(t *testing.T) {
	for _, w := range workloads {
		a, b := draw(w, 42, 300), draw(w, 43, 300)
		same := 0
		for i := range a {
			if bytes.Equal(a[i].body, b[i].body) {
				same++
			}
		}
		// fleet3-miss repeats its popular programs, so some positions may
		// coincide by chance; the streams as a whole must not.
		if same == len(a) {
			t.Errorf("%s: seeds 42 and 43 give the same %d bodies", w.name, len(a))
		}
	}
}

// fingerprints parses every program a request carries.
func fingerprints(t *testing.T, r request) []string {
	t.Helper()
	var srcs []string
	switch r.kind {
	case "refine":
		var req service.RefineRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			t.Fatal(err)
		}
		srcs = []string{req.Concrete, req.Abstract}
	default:
		var req service.SelfStabRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			t.Fatal(err)
		}
		srcs = []string{req.Source}
	}
	var fps []string
	for _, src := range srcs {
		prog, err := gcl.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", r.program, err)
		}
		fps = append(fps, gcl.Fingerprint(prog))
	}
	return fps
}

func TestColdRingNeverRepeatsAFingerprint(t *testing.T) {
	seen := map[string]string{}
	// Ring programs are long; 500 requests cover every family, N and K.
	for _, r := range draw(workloadByName("cold-ring"), 42, 500) {
		for _, fp := range fingerprints(t, r) {
			if prev, dup := seen[fp]; dup {
				t.Fatalf("%s repeats the fingerprint of %s", r.program, prev)
			}
			seen[fp] = r.program
		}
	}
}

// TestColdRingCoversThePaperCases pins the expected answers to the
// paper's results: Dijkstra-3 and the aggressive system stabilize, the
// refinement holds, and K-state stabilizes iff K ≥ N.
func TestColdRingCoversThePaperCases(t *testing.T) {
	kinds := map[string]int{}
	failing := 0
	for _, r := range draw(workloadByName("cold-ring"), 42, 500) {
		kinds[r.kind]++
		if r.kind == "selfstab" && !r.want.holds {
			failing++
			if !r.want.witness {
				t.Errorf("%s: a failing verdict must expect a witness", r.program)
			}
		}
	}
	if kinds["selfstab"] == 0 || kinds["refine"] == 0 || kinds["lint"] == 0 || failing == 0 {
		t.Errorf("cold-ring mix %v with %d below-threshold K-state requests misses a case", kinds, failing)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workload and metric
// lists in step with the driver's.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string }               `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, driver %q", i, w.Name, workloads[i].name)
		}
	}
	want := []string{"throughput_rps", "latency_p50_ms", "latency_p90_ms", "ok_ratio", "setup_s", "peak_rss_mb"}
	if len(spec.EndToEnd) != len(want) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the driver %d", len(spec.EndToEnd), len(want))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != want[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %q, driver %q", i, m.Name, want[i])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the driver %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		pl := perLayer[i]
		if m.Name != pl.name || m.Unit != pl.unit || m.Better != pl.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, driver %s %s %s", i, m, pl.name, pl.unit, pl.better)
		}
	}
}
