package core

import (
	"context"
	"time"

	"ist/internal/clock"
	"ist/internal/geom"
	"ist/internal/obs"
	"ist/internal/oracle"
	"ist/internal/polytope"
)

// This file is the anytime engine: a Budget bounds an interaction (question
// count, deadline on an injected clock, context cancellation), a tracker
// threads it through an algorithm's question boundaries and heavy loops, and
// a Certificate reports honestly what the returned point is worth. The
// unbudgeted Run entry points pass a nil tracker, whose methods are all
// no-op on the nil receiver, so the hot experiment paths pay nothing and —
// crucially for transcript replay — consume no randomness and ask exactly
// the same question sequence as before the engine existed.

// Budget bounds an interactive run. The zero value is inactive: no limits,
// identical behaviour to plain Run.
type Budget struct {
	// MaxQuestions caps how many questions the algorithm may ask
	// (0 = unlimited). Each Oracle.Prefer call from the algorithm counts
	// once, regardless of any vote amplification inside the oracle.
	MaxQuestions int
	// Deadline stops the run once Clock reaches it (zero = none).
	Deadline time.Time
	// Clock supplies time for Deadline checks and the degradation ladder;
	// nil defaults to clock.Real.
	Clock clock.Clock
	// Ctx cancels the run between question boundaries and inside heavy
	// loops when its Done channel fires (nil = no cancellation).
	Ctx context.Context
}

// Active reports whether the budget constrains anything.
func (b Budget) Active() bool {
	return b.MaxQuestions > 0 || !b.Deadline.IsZero() || b.Ctx != nil
}

// StopReason says why a budgeted run returned.
type StopReason string

const (
	// StopConverged is the algorithm's own stopping rule: the result is
	// guaranteed top-k (up to the algorithm's usual caveats, e.g. sampled
	// convex points).
	StopConverged StopReason = "converged"
	// StopQuestions means the question budget ran out.
	StopQuestions StopReason = "question-budget"
	// StopDeadline means the deadline passed.
	StopDeadline StopReason = "deadline"
	// StopCanceled means the context was canceled.
	StopCanceled StopReason = "canceled"
	// StopDegenerate means the utility region collapsed (an erring user or
	// numerically degenerate input) and the result is a best guess.
	StopDegenerate StopReason = "degenerate-region"
	// StopPanic means the algorithm panicked mid-run and the engine
	// recovered with the best point known at that moment.
	StopPanic StopReason = "panic-recovered"
)

// Certificate is the honest receipt attached to a budgeted result.
type Certificate struct {
	// Certified reports whether the point is guaranteed to be among the
	// user's top-k; false means best effort.
	Certified bool `json:"certified"`
	// Reason says which condition ended the run.
	Reason StopReason `json:"reason"`
	// Questions is how many questions this run asked.
	Questions int `json:"questions"`
	// Candidates counts the points not yet certainly beaten by k others
	// over the surviving utility region — the set the true answer is still
	// hiding in. It shrinks toward k (and below, to the certified answers)
	// as answers accumulate; len(points) means nothing was narrowed.
	Candidates int `json:"candidates"`
	// CredibleWeight is the posterior weight fraction behind the answer
	// (RobustHDPI only; 0 otherwise).
	CredibleWeight float64 `json:"credibleWeight,omitempty"`
	// Degradations lists the quality trade-offs the degradation ladder took
	// under pressure (bounding downgrades, convex-mode fallback, ...).
	Degradations []string `json:"degradations,omitempty"`
	// Elapsed is the run's wall time, measured on the budget's injected
	// clock (zero for inactive budgets, which perform no clock reads).
	// JSON carries it as integer nanoseconds.
	Elapsed time.Duration `json:"elapsed,omitempty"`
}

// tracker carries one budgeted run's accounting. A nil tracker is the
// unbudgeted fast path: every method is safe and free on the nil receiver.
type tracker struct {
	active bool
	budget Budget
	clk    clock.Clock
	// obs receives trace events; nil is the silent fast path. Events carry
	// only already-computed state, so an attached observer consumes no
	// randomness and leaves transcripts bit-identical.
	obs obs.Observer

	// Degradation-ladder state. start/horizon scale deadline pressure;
	// strategy and stopEvery are the knobs algorithms re-read each round.
	start     time.Time
	horizon   time.Duration
	ladder    int
	strategy  polytope.Strategy
	stopEvery int
	notes     []string

	asked     int
	exhReason StopReason

	// Best-effort state observed along the way, for panic rescue and the
	// final certificate.
	lastU     geom.Vector
	lastVerts []geom.Vector

	certified bool
	reason    StopReason
	credible  float64
}

// newTracker builds a tracker for the budget, seeded with the algorithm's
// configured bounding strategy and stop-check cadence (the ladder's knobs)
// and carrying the run's trace observer (nil for untraced runs).
func newTracker(b Budget, strat polytope.Strategy, stopEvery int, o obs.Observer) *tracker {
	if stopEvery <= 0 {
		stopEvery = 1
	}
	t := &tracker{budget: b, strategy: strat, stopEvery: stopEvery, active: b.Active(), obs: o}
	if !t.active {
		return t
	}
	t.clk = b.Clock
	if t.clk == nil {
		t.clk = clock.Real
	}
	t.start = t.clk.Now()
	if !b.Deadline.IsZero() {
		t.horizon = b.Deadline.Sub(t.start)
	}
	return t
}

// obsTracker returns a tracker that only carries a trace observer — no
// budget, no clock — or nil when there is nothing to observe, keeping the
// uninstrumented fast path allocation-free. It is how the plain Run entry
// points thread an attached observer without changing any behaviour:
// every budget gate checks active (false here).
func obsTracker(o obs.Observer) *tracker {
	if o == nil {
		return nil
	}
	return &tracker{obs: o}
}

// observer returns the trace observer, nil-safe on a nil tracker.
func (t *tracker) observer() obs.Observer {
	if t == nil {
		return nil
	}
	return t.obs
}

// ask emits a question-asked event immediately before the oracle is
// consulted; i and j are the compared point indices.
func (t *tracker) ask(i, j int) {
	if t != nil {
		obs.QuestionAsked(t.obs, i, j)
	}
}

// pruned emits a candidate-pruned event for n eliminated candidates.
func (t *tracker) pruned(n int) {
	if t != nil {
		obs.CandidatePruned(t.obs, n)
	}
}

// stopCheck emits a stop-check event with the stopping rule's outcome.
func (t *tracker) stopCheck(ok bool) {
	if t != nil {
		obs.StopConditionCheck(t.obs, ok)
	}
}

// exhausted reports whether the budget has run out, recording the first
// reason sticky so every later check agrees. It consumes no randomness.
func (t *tracker) exhausted() bool {
	if t == nil || !t.active {
		return false
	}
	if t.exhReason != "" {
		return true
	}
	switch {
	case t.budget.Ctx != nil && t.budget.Ctx.Err() != nil:
		t.exhReason = StopCanceled
	case t.budget.MaxQuestions > 0 && t.asked >= t.budget.MaxQuestions:
		t.exhReason = StopQuestions
	case !t.budget.Deadline.IsZero() && !t.clk.Now().Before(t.budget.Deadline):
		t.exhReason = StopDeadline
	}
	return t.exhReason != ""
}

// stopReason is the exhaustion (or collapse) reason for a best-effort exit.
func (t *tracker) stopReason() StopReason {
	if t == nil || t.exhReason == "" {
		return StopDegenerate
	}
	return t.exhReason
}

// question accounts one answered question and emits the answer-received
// event. Call it after Oracle.Prefer returns, so a question that panicked
// mid-ask is not billed to the user; i and j are the compared point indices
// and preferFirst is the user's answer.
func (t *tracker) question(i, j int, preferFirst bool) {
	if t != nil {
		t.asked++
		obs.AnswerReceived(t.obs, i, j, preferFirst)
	}
}

// observe remembers the algorithm's current location estimate (a utility
// vector inside the surviving region) and, when non-nil, the region's
// vertices — the state a best-effort answer is built from.
func (t *tracker) observe(u geom.Vector, verts []geom.Vector) {
	if t == nil {
		return
	}
	if u != nil {
		t.lastU = u
	}
	if verts != nil {
		t.lastVerts = verts
	}
}

// maybeDegrade walks the degradation ladder under deadline pressure: past
// half the time budget the bounding shortcut downgrades Ball→Rect, past
// three quarters Rect→None and the stop-check cadence doubles. Dropping
// bounding-volume maintenance trades average-case speed for predictable
// per-question latency (no cache rebuilds on heavily cut polytopes), and a
// sparser Lemma 5.5 check spends the remaining time on region-shrinking
// questions rather than on certification attempts that keep failing.
func (t *tracker) maybeDegrade() {
	if t == nil || !t.active || t.horizon <= 0 {
		return
	}
	elapsed := t.clk.Now().Sub(t.start)
	if t.ladder < 1 && elapsed*2 >= t.horizon {
		t.ladder = 1
		if t.strategy == polytope.StrategyBall {
			t.strategy = polytope.StrategyRectFast
			t.note("bounding ball→rect under deadline pressure")
		}
	}
	if t.ladder < 2 && elapsed*4 >= t.horizon*3 {
		t.ladder = 2
		if t.strategy != polytope.StrategyNone {
			t.strategy = polytope.StrategyNone
			t.note("bounding rect→none under deadline pressure")
		}
		t.stopEvery *= 2
		t.note("stop-check cadence halved under deadline pressure")
	}
}

// note records a degradation once, emitting a degradation-step event on
// first occurrence.
func (t *tracker) note(msg string) {
	if t == nil {
		return
	}
	for _, n := range t.notes {
		if n == msg {
			return
		}
	}
	t.notes = append(t.notes, msg)
	obs.DegradationStep(t.obs, msg)
}

// finish records the run's outcome; verts (may be nil) is the surviving
// utility region the certificate's candidate count is computed over.
func (t *tracker) finish(certified bool, reason StopReason, verts []geom.Vector) {
	if t == nil {
		return
	}
	t.certified = certified
	t.reason = reason
	if verts != nil {
		t.lastVerts = verts
	}
}

// certificate packages the run's accounting.
func (t *tracker) certificate(points []geom.Vector, k int) Certificate {
	if t == nil {
		return Certificate{}
	}
	reason := t.reason
	if reason == "" {
		reason = StopConverged
	}
	var elapsed time.Duration
	if t.clk != nil {
		elapsed = t.clk.Now().Sub(t.start)
	}
	return Certificate{
		Certified:      t.certified,
		Reason:         reason,
		Questions:      t.asked,
		Candidates:     countCandidates(points, k, t.lastVerts),
		CredibleWeight: t.credible,
		Degradations:   t.notes,
		Elapsed:        elapsed,
	}
}

// rescue is the panic barrier of the budgeted entry points: a panic inside
// a budget-active run (a poisoned oracle, a numerical explosion) is
// converted into a best-effort answer with an honest panic-recovered
// certificate instead of unwinding into the caller. Unbudgeted runs keep
// their propagate-the-panic contract — the session layer's own isolation
// depends on it.
func (t *tracker) rescue(points []geom.Vector, k int, idx *int, cert *Certificate) {
	if t == nil || !t.active {
		return
	}
	if r := recover(); r == nil {
		return
	}
	u := t.lastU
	if u == nil {
		u = uniformUtility(len(points[0]))
	}
	*idx = argmaxAt(points, u)
	t.finish(false, StopPanic, nil)
	*cert = t.certificate(points, k)
}

// rescueMulti is rescue for the multi-answer variants.
func (t *tracker) rescueMulti(points []geom.Vector, k, want int, idx *[]int, cert *Certificate) {
	if t == nil || !t.active {
		return
	}
	if r := recover(); r == nil {
		return
	}
	u := t.lastU
	if u == nil {
		u = uniformUtility(len(points[0]))
	}
	*idx = oracle.TopK(points, u, want)
	t.finish(false, StopPanic, nil)
	*cert = t.certificate(points, k)
}

// countCandidates counts the points that could still be in the user's top-k
// given that the utility vector lies in the region spanned by verts: a point
// is ruled out only when k other points certainly beat it, i.e. beat it at
// every region vertex. With no region information, every point is a
// candidate. Over the full simplex this is exactly the k-skyband.
func countCandidates(points []geom.Vector, k int, verts []geom.Vector) int {
	n := len(points)
	if len(verts) == 0 {
		return n
	}
	// util[j][vi] = verts[vi]·points[j], computed once.
	util := make([][]float64, n)
	for j, p := range points {
		row := make([]float64, len(verts))
		for vi, v := range verts {
			row[vi] = v.Dot(p)
		}
		util[j] = row
	}
	candidates := 0
	for i := 0; i < n; i++ {
		beaters := 0
		for j := 0; j < n && beaters < k; j++ {
			if j == i {
				continue
			}
			certain := true
			for vi := range verts {
				if util[j][vi] <= util[i][vi]+geom.Eps {
					certain = false
					break
				}
			}
			if certain {
				beaters++
			}
		}
		if beaters < k {
			candidates++
		}
	}
	return candidates
}
