package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"

	"repro/internal/fleet"
	"repro/internal/ring"
	"repro/internal/service"
)

// request is one generated checkd call together with the answer the
// driver expects. Expected answers come from the paper's results or from
// the shape of the generated program, never from checkd.
type request struct {
	kind string // selfstab | lint | refine
	body []byte
	// program names the checked input, so a cached response can be
	// compared with the first response computed for the same input.
	program string
	// entry is the replica index the request enters at (fleet only).
	entry int
	want  expectation
}

// expectation is the hand-derived answer for one request. Lint requests
// always expect zero error diagnostics from a completed exact tier:
// every generated program assigns only modular values inside its
// declared domains, has a satisfiable init, and always has an enabled
// action.
type expectation struct {
	// holds is the expected selfstab verdict or refine conjunction.
	holds bool
	// witness marks a failing selfstab verdict that must carry a
	// counterexample.
	witness bool
}

// path returns the endpoint a request kind is posted to.
func (r request) path() string { return "/v1/" + r.kind }

// Traffic-mix and population constants. prewritePrograms and the
// 60/30/10 mix match cmd/loadgen's defaults; fleetZipfV flattens the Zipf
// head so that most fleet3-miss requests are first-seen while popular
// programs still repeat.
const (
	prewritePrograms = 64
	zipfS            = 1.2
	fleetZipfV       = 100
	selfstabPct      = 60
	lintPct          = 30
	replicas         = 3
)

// pickKind draws a request kind from the selfstab/lint/refine mix.
func pickKind(rng *rand.Rand) string {
	switch pick := rng.Intn(100); {
	case pick < selfstabPct:
		return "selfstab"
	case pick < selfstabPct+lintPct:
		return "lint"
	default:
		return "refine"
	}
}

// smallRequest builds a request over fleet.LoadgenProgram(i). Every such
// program's tick action cycles x through its whole domain, so every
// state is reachable from init: the program is trivially
// self-stabilizing, and it refines itself.
func smallRequest(kind string, i int) request {
	src := fleet.LoadgenProgram(i)
	return request{
		kind:    kind,
		body:    encodeBody(kind, src, src),
		program: fmt.Sprintf("%s/%d", kind, i),
		want:    expectation{holds: true},
	}
}

// encodeBody marshals the exported checkd request type of kind. abstract
// is used by refine only.
func encodeBody(kind, src, abstract string) []byte {
	var v any
	switch kind {
	case "selfstab":
		v = service.SelfStabRequest{Source: src}
	case "lint":
		v = service.LintRequest{Source: src}
	default:
		v = service.RefineRequest{Concrete: src, Abstract: abstract}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types marshal unconditionally
	}
	return b
}

// smallPrewrite yields every one of prewritePrograms small programs
// under every kind, in a seeded order; their verdicts fill the journal
// that each cold-ring set-up replays, so that setup_s covers a journal
// replay of checkd's everyday traffic.
func smallPrewrite(seed int64) func() request {
	rng := rand.New(rand.NewSource(seed))
	kinds := []string{"selfstab", "lint", "refine"}
	order := rng.Perm(len(kinds) * prewritePrograms)
	i := 0
	return func() request {
		k := order[i%len(order)]
		i++
		return smallRequest(kinds[k%len(kinds)], k/len(kinds))
	}
}

// ringVar matches the register names internal/ring's generators emit
// (c<j> for the 3-state systems, x<j> for K-state).
var ringVar = regexp.MustCompile(`\b([cx])([0-9]+)\b`)

// renameRing suffixes every register name. Renaming is semantics-free,
// so the verdict is unchanged while the fingerprint is new.
func renameRing(src, suffix string) string {
	return ringVar.ReplaceAllString(src, "${1}${2}_"+suffix)
}

// K-state instances run at ringKStateN only: at N=6 and N=7 the K ≥ N
// state spaces (6^7 and 7^8 states) are one to two orders of magnitude
// above the 3-state systems' and would turn cold-ring into a K-state
// benchmark.
const ringKStateN = 5

// ringCase is one cold-ring request shape.
type ringCase struct {
	kind   string
	family string // dijkstra3 | aggressive | kstate; refine is always aggressive ⪯ dijkstra3
	n, k   int
}

// ringBlock is cold-ring's mix, sent as seeded shuffles of the whole
// block so that every seed sends the same mix of costs: self-
// stabilization and lint over Dijkstra's 3-state system and Section 6's
// aggressive system at N=5..7 and over Dijkstra's K-state system at N=5
// with K from 3 to 5, and the refinement aggressive ⪯ Dijkstra-3 at
// N=5..7 twice: 9 selfstab, 6 refine and 9 lint requests.
var ringBlock = func() []ringCase {
	var block []ringCase
	for _, kind := range []string{"selfstab", "lint"} {
		for n := 5; n <= 7; n++ {
			block = append(block, ringCase{kind, "dijkstra3", n, 0}, ringCase{kind, "aggressive", n, 0})
		}
		for k := 3; k <= ringKStateN; k++ {
			block = append(block, ringCase{kind, "kstate", ringKStateN, k})
		}
	}
	for n := 5; n <= 7; n++ {
		block = append(block, ringCase{"refine", "aggressive", n, 0}, ringCase{"refine", "aggressive", n, 0})
	}
	return block
}()

// request renders the case with every register renamed by suffix. The
// expected verdicts are the paper's: both 3-state systems stabilize,
// the aggressive system refines Dijkstra-3 (the two compile to the same
// automaton, so all four refine verdicts hold), and K-state stabilizes
// iff K ≥ N (E10), failing with a witness below it.
func (c ringCase) request(suffix string) request {
	name := fmt.Sprintf("%s/%s/%d/%d/%s", c.kind, c.family, c.n, c.k, suffix)
	want := expectation{holds: true}
	var src, abstract string
	switch c.family {
	case "dijkstra3":
		src = ring.Dijkstra3GCL(c.n)
	case "aggressive":
		src = ring.AggressiveThreeGCL(c.n)
	default:
		src = ring.KStateGCL(c.n, c.k)
		if c.kind == "selfstab" && c.k < c.n {
			want = expectation{holds: false, witness: true}
		}
	}
	if c.kind == "refine" {
		abstract = renameRing(ring.Dijkstra3GCL(c.n), suffix)
	}
	return request{kind: c.kind, body: encodeBody(c.kind, renameRing(src, suffix), abstract),
		program: name, want: want}
}

// coldRing sends distinct ring programs from internal/ring's generators,
// one seeded shuffle of ringBlock after another.
func coldRing(seed int64) func() request {
	rng := rand.New(rand.NewSource(seed))
	tag := rng.Int63n(1 << 40)
	seq := 0
	var block []ringCase
	return func() request {
		if len(block) == 0 {
			block = append(block, ringBlock...)
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		c := block[0]
		block = block[1:]
		seq++
		return c.request(fmt.Sprintf("s%x_%d", tag, seq))
	}
}

// fleetMiss draws small programs by Zipf over a population far larger
// than any run, with the 60/30/10 mix, entering the fleet round-robin.
func fleetMiss(seed int64) func() request {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zipfS, fleetZipfV, 1<<40)
	base := int(rng.Int63n(1 << 40))
	i := 0
	return func() request {
		kind := pickKind(rng)
		r := smallRequest(kind, base+int(zipf.Uint64()))
		r.entry = i % replicas
		i++
		return r
	}
}
