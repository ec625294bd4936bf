package core

import (
	"fmt"
	"math/rand"

	"ist/internal/geom"
	"ist/internal/obs"
	"ist/internal/oracle"
	"ist/internal/polytope"
)

// RHOptions configures the RH algorithm.
type RHOptions struct {
	// Rng drives the random point order and the stopping-check sampling;
	// required for reproducibility (defaults to a fixed seed).
	Rng *rand.Rand
	// StopCheckEvery runs the Lemma 5.5 check every this many rounds
	// (default 1; ablation knob).
	StopCheckEvery int
	// UseBall enables the O(1) bounding-ball pre-test when scanning
	// candidate hyperplanes (default true).
	UseBall bool
	// Observer receives trace events (internal/obs); nil disables tracing.
	Observer obs.Observer
}

// strategy is the bounding shortcut the options ask for; the degradation
// ladder may downgrade it mid-run under deadline pressure.
func (opt RHOptions) strategy() polytope.Strategy {
	if opt.UseBall {
		return polytope.StrategyBall
	}
	return polytope.StrategyNone
}

// RH is the random-hyperplane algorithm of Section 5.3. It maintains a
// single utility range R, walks a random order of the points, and at each
// step asks the question whose hyperplane intersects R closest to R's
// centre. It asks O(c·d·log n) questions in expectation (Theorem 5.7),
// asymptotically optimal for fixed d (Corollary 5.8), and is the fastest of
// the paper's algorithms.
type RH struct {
	opt RHOptions
}

// NewRH builds an RH instance, filling in option defaults.
func NewRH(opt RHOptions) *RH {
	if opt.Rng == nil {
		opt.Rng = rand.New(rand.NewSource(1))
	}
	if opt.StopCheckEvery <= 0 {
		opt.StopCheckEvery = 1
	}
	return &RH{opt: opt}
}

// NewRHDefault returns RH with default options and the given seed.
func NewRHDefault(seed int64) *RH {
	return NewRH(RHOptions{Rng: rand.New(rand.NewSource(seed)), UseBall: true})
}

// Name implements Algorithm.
func (a *RH) Name() string { return "RH" }

// SetObserver implements Observable.
func (a *RH) SetObserver(o obs.Observer) { a.opt.Observer = o }

// Run implements Algorithm.
func (a *RH) Run(points []geom.Vector, k int, o oracle.Oracle) int {
	return rhRun(a.opt, points, k, 1, o, obsTracker(a.opt.Observer))[0]
}

// RunBudgeted implements Budgeted. On exhaustion it returns the top-1 at
// R's centre — the centre of everything the answers so far have not ruled
// out.
func (a *RH) RunBudgeted(points []geom.Vector, k int, o oracle.Oracle, b Budget) (idx int, cert Certificate) {
	tr := newTracker(b, a.opt.strategy(), a.opt.StopCheckEvery, a.opt.Observer)
	defer tr.rescue(points, k, &idx, &cert)
	idx = rhRun(a.opt, points, k, 1, o, tr)[0]
	cert = tr.certificate(points, k)
	return idx, cert
}

// bestEffortRegion finishes a budget-exhausted run on the single polytope R:
// the answer is the top-want at R's centre, the certificate's candidate
// count is computed over R's vertices.
func bestEffortRegion(points []geom.Vector, want int, R *polytope.Polytope, tr *tracker) []int {
	verts := R.Vertices()
	if len(verts) == 0 {
		tr.finish(false, tr.stopReason(), nil)
		return oracle.TopK(points, uniformUtility(len(points[0])), want)
	}
	tr.finish(false, tr.stopReason(), verts)
	return oracle.TopK(points, R.Center(), want)
}

// rhRun is RH's loop. It returns want point indices once that many fulfil
// Lemma 5.5 over R: want = 1 is RH itself, want > 1 is RH-SomeTopK
// (Section 6.5.2), whose only change to RH is this stopping condition.
func rhRun(opt RHOptions, points []geom.Vector, k, want int, o oracle.Oracle, tr *tracker) []int {
	if want > k {
		panic(fmt.Sprintf("core: want %d > k %d", want, k))
	}
	n := len(points)
	d := len(points[0])
	rng := opt.Rng
	R := polytope.NewSimplex(d)
	perm := rng.Perm(n)

	strat := opt.strategy()
	stopEvery := opt.StopCheckEvery

	i := 1 // current ladder position: H_i holds hyperplanes (perm[i], perm[j<i])
	round := 0
	for {
		if tr.exhausted() {
			return bestEffortRegion(points, want, R, tr)
		}
		tr.maybeDegrade()
		if tr != nil && tr.active {
			strat, stopEvery = tr.strategy, tr.stopEvery
		}
		// Stopping condition 2 (Lemma 5.5) on the single polytope R.
		if round%stopEvery == 0 {
			verts := R.Vertices()
			if len(verts) == 0 {
				// Only with an erring user: contradictory cuts emptied R.
				tr.finish(false, StopDegenerate, nil)
				return oracle.TopK(points, uniformUtility(d), want)
			}
			probe := R.Sample(rng)
			tr.observe(probe, verts)
			res, ok := lemma55(points, k, verts, probe, want)
			tr.stopCheck(ok)
			if ok {
				tr.finish(true, StopConverged, verts)
				return res
			}
		}
		round++

		// Hyperplane selection (Section 5.3.3): within the current H_i, the
		// intersecting hyperplane closest to R's centre; advance the ladder
		// when H_i has no intersecting hyperplane left. R only shrinks, so
		// abandoned ladders never need revisiting.
		center := R.Center()
		tr.observe(center, nil)
		bestJ, bestDist := -1, 0.0
		for {
			for j := 0; j < i; j++ {
				if tr.exhausted() {
					return bestEffortRegion(points, want, R, tr)
				}
				h := geom.NewHyperplane(points[perm[i]], points[perm[j]])
				if h.Degenerate() {
					continue
				}
				if R.ClassifyWith(h, strat, nil) != polytope.ClassIntersect {
					continue
				}
				if dist := h.Distance(center); bestJ < 0 || dist < bestDist {
					bestJ, bestDist = j, dist
				}
			}
			if bestJ >= 0 {
				break
			}
			i++
			if i >= n {
				// Stopping condition 3: no pair hyperplane intersects R, so
				// the ranking of all points is fixed over R; the top-want at
				// R's centre is certainly among the top-k.
				tr.finish(true, StopConverged, R.Vertices())
				return oracle.TopK(points, center, want)
			}
		}

		pi, pj := points[perm[i]], points[perm[bestJ]]
		h := geom.NewHyperplane(pi, pj)
		tr.ask(perm[i], perm[bestJ])
		ans := o.Prefer(pi, pj)
		if !ans {
			h = h.Flip()
		}
		tr.question(perm[i], perm[bestJ], ans)
		R.CutObserved(h, tr.observer())
	}
}
