package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"ist"
	"ist/internal/obs"
)

// replayedCounters are the registry series a traced rerun must reproduce
// exactly: they count algorithm and store work, which the wrappers must not
// change.
var replayedCounters = []string{
	"ist_questions_total",
	"ist_halfspace_cuts_total",
	"ist_candidates_pruned_total",
	"ist_stop_checks_total",
	"ist_lp_solves_total",
	"ist_lp_iterations_total",
	"ist_convex_point_tests_total",
	"ist_wal_appends_total",
	"ist_wal_snapshots_total",
}

// runTraced measures the per-layer metrics. It runs an untraced timed phase
// of half the run's length first, then builds a fresh served system with
// the wrappers installed, replays exactly the same sessions, and checks that
// the replay asked the same questions and returned the same results. The
// whole run so takes about as long as an untraced one.
func runTraced(w workload, seed int64, d time.Duration) (result, error) {
	plain, err := setup(w, seed, nil)
	if err != nil {
		return result{}, err
	}
	regBefore := counters(plain.reg)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph0 := plain.drive(context.Background(), users, timeLimit(d/2), nil)
	runtime.ReadMemStats(&m1)
	reg0 := delta(regBefore, counters(plain.reg))
	plain.close()

	tr := newTracer()
	inst, err := setup(w, seed, tr)
	if err != nil {
		return result{}, err
	}
	// The traced system starts from the same state, warm-up included, so
	// its timed sessions get the same ids as the untraced ones.
	tr.reset()
	regBefore = counters(inst.reg)
	prepBefore := inst.prepStats()
	clientReg := obs.NewRegistry()
	ph1 := inst.drive(context.Background(), users, countLimit(len(ph0.sessions)), clientReg)
	reg1 := delta(regBefore, counters(inst.reg))
	prepAfter := inst.prepStats()
	inst.close()

	bad := check(plain, &ph0) + check(inst, &ph1)
	bad += sameSessions(w, &ph0, &ph1)
	for _, name := range replayedCounters {
		//lint:ignore floatcmp registry counters are integers; a traced rerun must reproduce them exactly
		if reg0[name] != reg1[name] {
			fmt.Fprintf(os.Stderr, "servebench: %s: %s was %g untraced, %g traced\n", w.name, name, reg0[name], reg1[name])
			bad++
		}
	}

	sessions := float64(max(len(ph1.sessions), 1))
	questions := max(reg1["ist_questions_total"], 1)
	clientAnswer := 0.0
	for _, a := range ph1.answers {
		clientAnswer += a.ms / float64(len(ph1.answers))
	}
	serverAnswer := tr.serverAnswer.mean(time.Millisecond)
	storeAnswer := tr.storeInAnswer.mean(time.Millisecond)
	compute := tr.question.mean(time.Millisecond)
	self := serverAnswer - storeAnswer - compute
	overhead := clientAnswer - serverAnswer
	bad += checkDecomposition(w, clientAnswer, overhead, storeAnswer, compute, self)

	met := map[string]metric{
		"http.answer_overhead_ms":       {overhead, "ms"},
		"server.create_ms":              {tr.serverCreate.mean(time.Millisecond), "ms"},
		"server.answer_ms":              {serverAnswer, "ms"},
		"server.answer_self_ms":         {self, "ms"},
		"session.handoff_us":            {tr.handoff.mean(time.Microsecond), "us"},
		"core.question_ms":              {compute, "ms"},
		"core.first_question_ms":        {tr.firstQuestion.mean(time.Millisecond), "ms"},
		"polytope.cuts_per_question":    {reg1["ist_halfspace_cuts_total"] / questions, "count"},
		"lp.solves_per_session":         {0, "count"},
		"lp.pivots_per_solve":           {0, "count"},
		"lp.solve_ms":                   {0, "ms"},
		"hull.convex_tests_per_session": {0, "count"},
		"prep.hits":                     {float64(prepAfter.Hits - prepBefore.Hits), "count"},
		"prep.misses":                   {float64(prepAfter.Misses - prepBefore.Misses), "count"},
		"prep.bytes":                    {float64(prepAfter.Bytes), "bytes"},
		"store.create_ms":               {tr.storeCreate.mean(time.Millisecond), "ms"},
		"store.answer_ms":               {storeAnswer, "ms"},
		"store.finish_ms":               {tr.storeFinish.mean(time.Millisecond), "ms"},
		"wal.fsyncs_per_session":        {reg1["ist_wal_fsync_seconds_count"] / sessions, "count"},
		"wal.fsync_ms":                  {1000 * reg1["ist_wal_fsync_seconds_sum"] / max(reg1["ist_wal_fsync_seconds_count"], 1), "ms"},
		"wal.appends_per_session":       {reg1["ist_wal_appends_total"] / sessions, "count"},
		"wal.snapshots":                 {reg1["ist_wal_snapshots_total"], "count"},
		"client.retries":                {counters(clientReg)["ist_client_retries_total"], "count"},
		"runtime.alloc_kb_per_session":  {float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(max(len(ph0.sessions), 1)), "KiB"},
		"runtime.gc_cycles":             {float64(m1.NumGC - m0.NumGC), "count"},
		"bench.trace_overhead_pct":      {100 * (ph1.elapsed.Seconds()/ph0.elapsed.Seconds() - 1), "%"},
	}
	// A prep-cache hit replays the taped LP and convex-test events of the
	// first computation, durations included, so those counters measure
	// live work only on a run without the cache.
	if !w.prepCache {
		solves := max(reg1["ist_lp_solves_total"], 1)
		met["lp.solves_per_session"] = metric{reg1["ist_lp_solves_total"] / sessions, "count"}
		met["lp.pivots_per_solve"] = metric{reg1["ist_lp_iterations_total"] / solves, "count"}
		met["lp.solve_ms"] = metric{1000 * reg1["ist_lp_solve_seconds_sum"] / solves, "ms"}
		met["hull.convex_tests_per_session"] = metric{reg1["ist_convex_point_tests_total"] / sessions, "count"}
	}
	return result{
		Correct:   bad == 0,
		Attempted: len(ph0.sessions) + len(ph1.sessions),
		Failed:    bad,
		Metrics:   met,
	}, nil
}

// prepStats reads the shared preprocessing cache's counters (zero without
// a cache).
func (inst *instance) prepStats() ist.PreprocessCacheStats {
	if inst.cache == nil {
		return ist.PreprocessCacheStats{}
	}
	return inst.cache.Stats()
}

// sameSessions checks that the traced rerun asked every session the same
// number of questions and returned the same result as the untraced run. It
// returns the number of sessions that differ.
func sameSessions(w workload, untraced, traced *phase) int {
	byID := make(map[int64]sessionResult, len(untraced.sessions))
	for _, s := range untraced.sessions {
		byID[s.id] = s
	}
	bad := 0
	for _, s := range traced.sessions {
		u, ok := byID[s.id]
		if !ok || u.questions != s.questions || u.resultID != s.resultID {
			bad++
		}
	}
	if len(traced.sessions) != len(untraced.sessions) {
		bad++
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "servebench: %s: %d sessions differ between the untraced and traced runs\n", w.name, bad)
	}
	return bad
}

// checkDecomposition checks that the layers an answer passes through are
// each non-negative and add up to the client-observed mean answer time
// within 10%. It returns 1 on failure.
func checkDecomposition(w workload, client, overhead, store, compute, self float64) int {
	sum := overhead + store + compute + self
	if overhead < 0 || store < 0 || compute < 0 || self < 0 || client <= 0 || math.Abs(sum-client) > 0.1*client {
		fmt.Fprintf(os.Stderr, "servebench: %s: answer layers http %.4g + store %.4g + compute %.4g + self %.4g = %.4g ms, client saw %.4g ms\n",
			w.name, overhead, store, compute, self, sum, client)
		return 1
	}
	return 0
}
