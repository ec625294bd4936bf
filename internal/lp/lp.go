// Package lp implements a dense two-phase simplex linear-programming solver.
//
// The IST reproduction needs LP in several places: output-sensitive convex
// point detection (Section 5.2.1 "accurate" mode), R-domination pruning in
// the UH-Random/UH-Simplex baselines, implication testing in Active-Ranking,
// and exact hyperplane/region intersection tests. All of these are small
// problems (at most a few variables and a few hundred constraints), so a
// dense tableau with Bland-rule anti-cycling is both simple and adequate.
package lp

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"ist/internal/clock"
	"ist/internal/geom"
	"ist/internal/obs"
)

// Relation is the comparison operator of a constraint.
type Relation int

const (
	// LE is a·x <= b.
	LE Relation = iota
	// GE is a·x >= b.
	GE
	// EQ is a·x == b.
	EQ
)

// Status is the outcome of a solve.
type Status int

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means the constraint system has no solution.
	Infeasible
	// Unbounded means the objective can grow without limit.
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Constraint is a single linear constraint Coef·x Rel RHS.
type Constraint struct {
	Coef []float64
	Rel  Relation
	RHS  float64
}

// Problem is a linear program: maximize Objective·x subject to Constraints,
// with x_i >= 0 unless Free[i] is set (Free may be nil, meaning all
// variables are nonnegative).
type Problem struct {
	NumVars     int
	Objective   []float64
	Constraints []Constraint
	Free        []bool
}

// Result holds the outcome of Solve.
type Result struct {
	Status Status
	// X is the optimal assignment (length NumVars) when Status == Optimal.
	X []float64
	// Value is Objective·X when Status == Optimal.
	Value float64
}

const (
	eps = geom.Eps
	// feasEps is the looser tolerance for phase-1 residuals and pivot
	// eligibility, where accumulated pivoting noise exceeds eps.
	feasEps = geom.FeasEps
	// maxIter bounds simplex iterations; beyond blandAfter iterations the
	// pivot rule switches to Bland's rule, which cannot cycle.
	maxIter    = 20000
	blandAfter = 2000
)

// solveHook, when set, observes and may mutate every Solve result before it
// is returned. It exists solely so the fault-injection chaos tests
// (internal/faultinject) can corrupt a scheduled solve and exercise the
// degradation ladder; production code must never install one.
var solveHook atomic.Pointer[func(*Result)]

// SetSolveHook installs (or, with nil, removes) the test-only solve hook.
func SetSolveHook(h func(*Result)) {
	if h == nil {
		solveHook.Store(nil)
		return
	}
	solveHook.Store(&h)
}

// solveClock times traced solves. It is injectable (SetClock) so tests
// control durations and the library never reads the wall clock directly;
// the default is the real clock, read only when a trace observer is
// attached — the untraced fast path performs no clock reads at all.
var solveClock atomic.Pointer[clock.Clock]

// SetClock injects the clock used to time traced solves (nil restores the
// real clock).
func SetClock(c clock.Clock) {
	if c == nil {
		solveClock.Store(nil)
		return
	}
	solveClock.Store(&c)
}

func clk() clock.Clock {
	if p := solveClock.Load(); p != nil {
		return *p
	}
	return clock.Real
}

// Solve optimizes the problem with a two-phase dense simplex method.
func Solve(p Problem) Result {
	return SolveTraced(p, nil)
}

// SolveTraced is Solve with an lp-solve trace event per call: final status,
// simplex pivot iterations, and duration measured on the injected package
// clock. A nil observer is the plain Solve fast path (no clock reads, no
// allocation). The chaos-test solve hook applies before the event is
// emitted, so a corrupted result is reported as what the caller saw.
func SolveTraced(p Problem, o obs.Observer) Result {
	var start time.Time
	if o != nil {
		start = clk().Now()
	}
	res, st := solve(p)
	if h := solveHook.Load(); h != nil {
		(*h)(&res)
	}
	if o != nil {
		obs.LPSolve(o, res.Status.String(), st.iters, clk().Now().Sub(start))
	}
	return res
}

// solveStats is one solve's pivot count and tableau shape.
type solveStats struct {
	iters       int // simplex pivots over both phases
	cols        int // tableau columns, excluding the RHS
	artificials int // phase-1 artificial columns
}

func solve(p Problem) (Result, solveStats) {
	if len(p.Objective) != p.NumVars {
		panic(fmt.Sprintf("lp: objective has %d coefficients for %d variables", len(p.Objective), p.NumVars))
	}
	for i, c := range p.Constraints {
		if len(c.Coef) != p.NumVars {
			panic(fmt.Sprintf("lp: constraint %d has %d coefficients for %d variables", i, len(c.Coef), p.NumVars))
		}
	}

	// All working memory below comes from a pooled scratch (scratch.go):
	// buffers are re-zeroed to fresh-make state, so the arithmetic — and the
	// pivot sequence — is identical to an allocating build.
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)

	// Split free variables x = x+ - x-. Column layout: for each original
	// variable i, column col[i] holds x_i (or x_i^+); free variables get an
	// extra negative-part column appended after the originals.
	nOrig := p.NumVars
	negCol := ints(&s.negCol, nOrig) // -1 if not free
	nStd := nOrig
	for i := 0; i < nOrig; i++ {
		negCol[i] = -1
		if p.Free != nil && p.Free[i] {
			negCol[i] = nStd
			nStd++
		}
	}

	m := len(p.Constraints)
	// The arena holds the m expanded constraint rows plus (row m) the
	// expanded objective, each nStd wide and zeroed like a fresh make.
	arena := floats(&s.rowArena, (m+1)*nStd)
	expandInto := func(dst, coef []float64) {
		copy(dst, coef)
		for i, nc := range negCol {
			if nc >= 0 {
				dst[nc] = -coef[i]
			}
		}
	}

	// Count slack/artificial columns.
	nSlack := 0
	nArt := 0
	rhs := floats(&s.rhs, m)
	rel := rels(&s.rel, m)
	for i, c := range p.Constraints {
		a := arena[i*nStd : (i+1)*nStd]
		expandInto(a, c.Coef)
		r := c.RHS
		rl := c.Rel
		// Normalize to a nonnegative RHS. A GE row with RHS 0 is negated
		// too: as an LE row it needs only a slack column, where a GE row
		// needs a slack and a phase-1 artificial. The margin LPs of the
		// exact convex scan are all such rows plus one EQ row, so this
		// keeps their tableau about m columns wide instead of 2m and their
		// phase 1 down to a single artificial.
		if r < 0 || (r == 0 && rl == GE) {
			for j := range a {
				a[j] = -a[j]
			}
			r = -r
			switch rl {
			case LE:
				rl = GE
			case GE:
				rl = LE
			}
		}
		rhs[i], rel[i] = r, rl
		switch rl {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}

	total := nStd + nSlack + nArt
	width := total + 1
	// tableau: m rows + 1 objective row (phase 1), columns total+1 (RHS last).
	tabBuf := floats(&s.tabBuf, (m+1)*width)
	t := rowPtrs(&s.tab, m+1)
	for i := range t {
		t[i] = tabBuf[i*width : (i+1)*width]
	}
	basis := ints(&s.basis, m)
	artCols := bools(&s.artCols, total)

	slackAt := nStd
	artAt := nStd + nSlack
	for i := 0; i < m; i++ {
		copy(t[i], arena[i*nStd:(i+1)*nStd])
		t[i][total] = rhs[i]
		switch rel[i] {
		case LE:
			t[i][slackAt] = 1
			basis[i] = slackAt
			slackAt++
		case GE:
			t[i][slackAt] = -1
			slackAt++
			t[i][artAt] = 1
			basis[i] = artAt
			artCols[artAt] = true
			artAt++
		case EQ:
			t[i][artAt] = 1
			basis[i] = artAt
			artCols[artAt] = true
			artAt++
		}
	}

	// Phase 1: minimize sum of artificials == maximize -(sum of artificials).
	st := solveStats{cols: total, artificials: nArt}
	if nArt > 0 {
		obj := t[m]
		for j := 0; j <= total; j++ {
			obj[j] = 0
		}
		for j := nStd + nSlack; j < total; j++ {
			obj[j] = -1 // maximize -sum(art)
		}
		// Price out basic artificials.
		for i, b := range basis {
			if artCols[b] {
				addRow(obj, t[i], 1)
			}
		}
		// The phase-1 objective is bounded above by 0, so an "unbounded"
		// verdict only means rounding noise left a positive reduced cost on a
		// column with no positive entry; the residual test below decides.
		_, n := simplexIterate(t, basis, total, m)
		st.iters += n
		// With this tableau convention the objective row's RHS equals the
		// negated objective value, so phase-1 optimum = -t[m][total].
		if t[m][total] > feasEps {
			return Result{Status: Infeasible}, st
		}
		// Drive remaining artificials out of the basis where possible.
		for i := 0; i < m; i++ {
			if !artCols[basis[i]] {
				continue
			}
			pivoted := false
			for j := 0; j < nStd+nSlack; j++ {
				if math.Abs(t[i][j]) > feasEps {
					pivot(t, basis, i, j, total, m)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row: the artificial stays basic at value ~0.
				// Zero it so it can never re-enter with a nonzero value.
				t[i][total] = 0
			}
		}
	}

	// Phase 2: the real objective.
	obj := t[m]
	for j := 0; j <= total; j++ {
		obj[j] = 0
	}
	cExp := arena[m*nStd : (m+1)*nStd]
	expandInto(cExp, p.Objective)
	for j := 0; j < nStd; j++ {
		obj[j] = cExp[j]
	}
	// Forbid artificials from re-entering.
	for j := nStd + nSlack; j < total; j++ {
		obj[j] = math.Inf(-1)
	}
	// Price out basic variables.
	for i, b := range basis {
		if math.Abs(obj[b]) > 0 && !math.IsInf(obj[b], -1) {
			addRow(obj, t[i], -obj[b])
		} else if artCols[b] {
			// Basic artificial at zero: leave objective row consistent by
			// treating its cost as zero.
			obj[b] = 0
		}
	}
	// Any remaining -Inf entries in non-basic artificial columns are fine:
	// they will never be chosen as entering columns. Replace Inf sums safely.
	for j := nStd + nSlack; j < total; j++ {
		if math.IsInf(obj[j], -1) {
			obj[j] = -1e18
		}
	}

	ok, n := simplexIterate(t, basis, total, m)
	st.iters += n
	if !ok {
		return Result{Status: Unbounded}, st
	}

	// Extract solution.
	xStd := floats(&s.xStd, nStd)
	for i, b := range basis {
		if b < nStd {
			xStd[b] = t[i][total]
		}
	}
	x := make([]float64, nOrig)
	for i := 0; i < nOrig; i++ {
		x[i] = xStd[i]
		if negCol[i] >= 0 {
			x[i] -= xStd[negCol[i]]
		}
	}
	val := 0.0
	for i, c := range p.Objective {
		val += c * x[i]
	}
	return Result{Status: Optimal, X: x, Value: val}, st
}

// addRow does dst += f * src over the full tableau width.
func addRow(dst, src []float64, f float64) {
	for j := range dst {
		dst[j] += f * src[j]
	}
}

// pivot performs a pivot on (row, col).
func pivot(t [][]float64, basis []int, row, col, total, m int) {
	pv := t[row][col]
	inv := 1 / pv
	for j := 0; j <= total; j++ {
		t[row][j] *= inv
	}
	t[row][col] = 1 // exact
	for i := 0; i <= m; i++ {
		if i == row {
			continue
		}
		f := t[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j <= total; j++ {
			t[i][j] -= f * t[row][j]
		}
		t[i][col] = 0 // exact
	}
	basis[row] = col
}

// simplexIterate runs primal simplex on the tableau until optimal or
// unbounded, also reporting how many pivot iterations it ran. Returns
// ok=false on unboundedness.
func simplexIterate(t [][]float64, basis []int, total, m int) (bool, int) {
	obj := t[m]
	for iter := 0; iter < maxIter; iter++ {
		bland := iter >= blandAfter
		// Entering column: positive reduced cost (we maximize).
		col := -1
		best := eps
		for j := 0; j < total; j++ {
			if obj[j] > best {
				if bland {
					col = j
					break
				}
				best = obj[j]
				col = j
			}
		}
		if col < 0 {
			return true, iter // optimal
		}
		// Ratio test.
		row := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			a := t[i][col]
			if a > eps {
				r := t[i][total] / a
				if r < bestRatio-eps || (math.Abs(r-bestRatio) <= eps && (row < 0 || basis[i] < basis[row])) {
					bestRatio = r
					row = i
				}
			}
		}
		if row < 0 {
			return false, iter // unbounded
		}
		pivot(t, basis, row, col, total, m)
	}
	// Iteration limit: treat the current (feasible) point as optimal enough.
	return true, maxIter
}
