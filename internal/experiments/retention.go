package experiments

import (
	"fmt"
	"math"

	"repro/internal/journal"
)

// E21Retention is the eighth extension experiment: the journal
// retention layer. Four properties are checked, all deterministic
// (in-memory backends, explicit coverage, no timers). Bounded disk:
// under a byte budget with prompt snapshot coverage, the journal's
// footprint stays flat while the appended volume grows far past the
// budget — compaction reclaims the covered prefix instead of the file
// growing without bound. Crash safety: a hard kill on either side of
// compaction's atomic swap (before: old bytes stand; after: new bytes
// stand) leaves a journal that replays cleanly with every
// acknowledged-and-covered-or-later event intact. Replay cost: a
// restart on a compacted journal replays only the surviving suffix,
// not the retired history. Degradation ladder: when coverage cannot
// advance, the journal sheds only fire-and-forget appends — counted,
// never silent — while durable appends keep working, and compaction
// restores full admission.
func E21Retention() *Report {
	r := &Report{
		ID:    "E21",
		Title: "Extension: journal retention — bounded disk, crash-safe compaction, degradation ladder",
		Claim: "checkpoint-anchored compaction bounds the journal's footprint without losing acked state, and disk pressure degrades service deterministically (compact → backpressure → shed) instead of failing open or silently dropping durable events",
	}
	flatCurveRows(r)
	killMidCompactionRows(r)
	replayCostRow(r)
	ladderRows(r)
	return r
}

// flatCurveRows streams events through a budgeted journal with prompt
// coverage and checks the byte curve stays flat under the budget while
// the appended volume grows past it.
func flatCurveRows(r *Report) {
	const (
		budget  = 8 << 10
		appends = 512
		cover   = 16 // publish coverage + compact every this many appends
	)
	mem := journal.NewMemBackend(nil)
	j, err := journal.Open(mem, journal.Options{MaxBatch: 4, MaxBytes: budget})
	if err != nil {
		r.Rows = append(r.Rows, Row{Name: "flat curve: open", Detail: err.Error()})
		return
	}
	defer j.Close()
	payload := []byte(`{"kind":"ringsim","key":"sha256:abcdef0123456789","cached":false}`)
	var appended, maxUsage int64
	for i := 0; i < appends; i++ {
		if _, err := j.Append(journal.KindVerdict, payload); err != nil {
			r.Rows = append(r.Rows, Row{Name: "flat curve: append", Detail: err.Error()})
			return
		}
		appended += int64(len(payload))
		if (i+1)%cover == 0 {
			j.SetCovered(j.LastSeq())
			j.Compact()
		}
		if u := j.Usage(); u > maxUsage {
			maxUsage = u
		}
	}
	st := j.Retention()
	r.Rows = append(r.Rows, expectRow(
		fmt.Sprintf("flat curve: %d appends under a %d-byte budget", appends, budget),
		maxUsage <= budget && st.UsageBytes <= budget && appended > 3*budget, true,
		fmt.Sprintf("payload=%d bytes appended, peak usage=%d, final usage=%d, compactions=%d, reclaimed=%d bytes, shed=%d",
			appended, maxUsage, st.UsageBytes, st.Compactions, st.ReclaimedBytes, st.Shed)))
	r.Rows = append(r.Rows, expectRow(
		"flat curve: nothing shed with prompt coverage",
		st.Shed == 0 && st.Level == "none", true,
		fmt.Sprintf("level=%s shed=%d — compaction alone held the budget", st.Level, st.Shed)))
}

// killMidCompactionRows hard-kills the backend on each side of the
// compaction swap and checks the surviving bytes replay cleanly with
// the uncovered suffix intact.
func killMidCompactionRows(r *Report) {
	for _, afterSwap := range []bool{false, true} {
		arm := "before swap"
		if afterSwap {
			arm = "after swap"
		}
		tb := journal.NewTornBackend(0, 0)
		j, err := journal.Open(tb, journal.Options{MaxBatch: 1})
		if err != nil {
			r.Rows = append(r.Rows, Row{Name: "kill " + arm + ": open", Detail: err.Error()})
			return
		}
		const n = 10
		for i := 0; i < n; i++ {
			if _, err := j.Append(journal.KindVerdict, []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
				r.Rows = append(r.Rows, Row{Name: "kill " + arm + ": append", Detail: err.Error()})
				return
			}
		}
		tb.ArmReplaceKill(afterSwap)
		j.SetCovered(6)
		j.Compact()
		j.Close()

		re, err := journal.Open(journal.NewMemBackend(tb.Bytes()), journal.Options{})
		if err != nil {
			r.Rows = append(r.Rows, Row{Name: "kill " + arm + ": reopen", Detail: err.Error()})
			return
		}
		st := re.ReplayStats()
		events, err := re.Read(0, math.MaxUint64, 0)
		if err != nil {
			r.Rows = append(r.Rows, Row{Name: "kill " + arm + ": read", Detail: err.Error()})
			return
		}
		// Before the swap the old file stands (all 10 events); after it
		// the new file stands (the suffix above the horizon). Either way:
		// zero corruption, and every event above the covered prefix — the
		// ones a snapshot does not hold — survives.
		wantFirst, wantEvents := uint64(1), n
		if afterSwap {
			wantFirst, wantEvents = 7, 4
		}
		clean := st.Corrupt == 0 && st.Stale == 0 && len(events) == wantEvents &&
			re.LastSeq() == n && events[0].Seq == wantFirst
		suffixIntact := true
		seen := map[uint64]bool{}
		for _, ev := range events {
			seen[ev.Seq] = true
		}
		for seq := uint64(7); seq <= n; seq++ {
			if !seen[seq] {
				suffixIntact = false
			}
		}
		re.Close()
		r.Rows = append(r.Rows, expectRow(
			fmt.Sprintf("kill %s: replay clean, uncovered suffix intact", arm),
			clean && suffixIntact, true,
			fmt.Sprintf("events=%d first_seq=%d last_seq=%d corrupt=%d (atomic swap: the journal is always one of exactly two valid files)",
				len(events), events[0].Seq, re.LastSeq(), st.Corrupt)))
	}
}

// replayCostRow compares restart replay cost before and after
// compaction on the same history.
func replayCostRow(r *Report) {
	const n = 400
	mem := journal.NewMemBackend(nil)
	j, err := journal.Open(mem, journal.Options{MaxBatch: 8})
	if err != nil {
		r.Rows = append(r.Rows, Row{Name: "replay cost: open", Detail: err.Error()})
		return
	}
	for i := 0; i < n; i++ {
		if _, err := j.Append(journal.KindVerdict, []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			r.Rows = append(r.Rows, Row{Name: "replay cost: append", Detail: err.Error()})
			return
		}
	}
	full, err := journal.Open(journal.NewMemBackend(mustBytes(mem)), journal.Options{})
	if err != nil {
		r.Rows = append(r.Rows, Row{Name: "replay cost: full reopen", Detail: err.Error()})
		return
	}
	fullEvents := full.ReplayStats().Events
	full.Close()

	j.SetCovered(n - 20)
	j.Compact()
	j.Close()
	compacted, err := journal.Open(journal.NewMemBackend(mustBytes(mem)), journal.Options{})
	if err != nil {
		r.Rows = append(r.Rows, Row{Name: "replay cost: compacted reopen", Detail: err.Error()})
		return
	}
	defer compacted.Close()
	st := compacted.ReplayStats()
	r.Rows = append(r.Rows, expectRow(
		fmt.Sprintf("replay cost: %d events → %d after compaction", fullEvents, st.Events),
		fullEvents == n && st.Events == 20 && compacted.LastSeq() == n && compacted.Horizon() == n-20, true,
		fmt.Sprintf("restart replays %d events instead of %d; horizon=%d inferred from the surviving suffix, head seq preserved at %d",
			st.Events, fullEvents, compacted.Horizon(), compacted.LastSeq())))
}

// ladderRows drives the journal past its budget with no coverage
// available, checks shedding is selective and counted, then restores
// coverage and checks full admission returns.
func ladderRows(r *Report) {
	const budget = 2 << 10
	mem := journal.NewMemBackend(nil)
	j, err := journal.Open(mem, journal.Options{MaxBatch: 1, MaxBytes: budget})
	if err != nil {
		r.Rows = append(r.Rows, Row{Name: "ladder: open", Detail: err.Error()})
		return
	}
	defer j.Close()
	payload := []byte(`{"kind":"outcome","status":"ok","elapsed_us":1200}`)
	// No coverage, no checkpoint requester: once over budget the writer
	// can neither compact nor wait, so the ladder goes straight to shed.
	for j.Usage() <= budget {
		if _, err := j.Append(journal.KindVerdict, payload); err != nil {
			r.Rows = append(r.Rows, Row{Name: "ladder: fill", Detail: err.Error()})
			return
		}
	}
	// One more durable append: the writer ran the over-budget check for
	// the crossing batch before committing this one.
	if _, err := j.Append(journal.KindVerdict, payload); err != nil {
		r.Rows = append(r.Rows, Row{Name: "ladder: crossing append", Detail: err.Error()})
		return
	}
	st := j.Retention()
	asyncErr := j.AppendAsync(journal.KindOutcome, payload)
	_, durableErr := j.Append(journal.KindVerdict, payload)
	shedSt := j.Retention()
	r.Rows = append(r.Rows, expectRow(
		"ladder: over budget with no coverage sheds async only",
		st.Level == "shed" && asyncErr == journal.ErrShed && durableErr == nil && shedSt.Shed == 1, true,
		fmt.Sprintf("level=%s async=%v durable=%v journal_shed_total=%d — durable appends keep their contract",
			st.Level, asyncErr, durableErr, shedSt.Shed)))

	// Coverage returns: compaction reclaims the prefix and admission
	// recovers without a restart.
	j.SetCovered(j.LastSeq())
	after := j.Compact()
	asyncErr = j.AppendAsync(journal.KindOutcome, payload)
	r.Rows = append(r.Rows, expectRow(
		"ladder: compaction restores full admission",
		after.Level == "none" && after.UsageBytes <= budget && asyncErr == nil, true,
		fmt.Sprintf("level=%s usage=%d/%d async=%v shed_total=%d (counter is cumulative, shedding stopped)",
			after.Level, after.UsageBytes, budget, asyncErr, after.Shed)))
}
