// Package hull finds the convex points of a dataset: points that are top-1
// w.r.t. at least one utility vector of the simplex (Section 5.2.1). HD-PI
// builds its initial utility-space partitions from exactly these points.
//
// Two strategies are provided, matching the paper's two HD-PI versions:
//
//   - ConvexPointsExact ("accurate"): an output-sensitive LP method. For
//     each candidate p we find δ = max over u of min u·(p−q) over all
//     confirmed convex points q; if δ < 0 then p is beaten everywhere
//     already by the confirmed set and is rejected (adding constraints can
//     only lower δ). δ comes first from the LP dual, which has d+1 rows
//     whatever the confirmed set's size; only survivors solve the primal,
//     whose optimum is a witness u. The witness is verified against the full
//     dataset: either p is top-1 at u (confirmed), or the actual winner is a
//     new convex point that joins the confirmed set and the LPs are retried.
//     Every retry grows the confirmed set, so the total LP count is
//     O(n + |V|) with small LPs (DESIGN.md §14.1).
//
//   - ConvexPointsSampling ("sampling"): the paper's practical strategy —
//     sample utility vectors uniformly and collect the distinct top-1
//     points. May miss convex points with small top-1 regions; Figure 7
//     measures how little this costs in result accuracy.
package hull

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"ist/internal/geom"
	"ist/internal/lp"
	"ist/internal/obs"
	"ist/internal/oracle"
)

// ConvexPointsExact returns the indices of all points that are top-1 for at
// least one utility vector (ties count as top-1), in ascending order.
//
// A non-Optimal LP solve — which on this always-feasible problem means
// numerical trouble, not geometry — is reported as an error together with
// the convex points confirmed so far, so callers can degrade to sampling
// rather than silently mislabel convex points. stop, when non-nil, is
// checked once per candidate and lets a budgeted caller abandon the scan
// early, again receiving the points confirmed so far. o receives one
// lp-solve event per LP and one convex-point-test event per candidate
// decision; nil is the silent fast path.
func ConvexPointsExact(points []geom.Vector, stop func() bool, o obs.Observer) ([]int, error) {
	n := len(points)
	if n == 0 {
		return nil, nil
	}
	d := len(points[0])

	confirmed := map[int]bool{}
	var confirmedList []int
	confirm := func(i int) {
		if !confirmed[i] {
			confirmed[i] = true
			confirmedList = append(confirmedList, i)
		}
	}

	// Seed: the winner at each simplex corner and at the centroid is a
	// convex point by construction.
	for _, u := range seedUtilities(d) {
		confirm(argmax(points, u, -1))
	}

	for p := 0; p < n; p++ {
		if confirmed[p] {
			continue
		}
		if stop != nil && stop() {
			break // budget exhausted: report what is confirmed so far
		}
		for {
			// The dual has d+1 rows where the primal has one per confirmed
			// point, and strong duality makes its optimum the same margin:
			// it rejects most candidates alone, and the primal runs only
			// for the survivors, to find their witness.
			delta, ok := dualMargin(points, p, confirmedList, o)
			if ok && delta < -geom.Eps {
				break // beaten everywhere by confirmed points: not convex
			}
			var u geom.Vector
			if ok {
				u, delta, ok = maxMinMargin(points, p, confirmedList, o)
			}
			if !ok {
				sort.Ints(confirmedList)
				return confirmedList, fmt.Errorf("hull: convex-point LP for candidate %d returned a non-optimal status", p)
			}
			if delta < -geom.Eps {
				break // beaten everywhere by confirmed points: not convex
			}
			// argmaxVals hands back the dot products the witness scan already
			// computed, so the tie-top-1 test below re-derives nothing.
			w, dp, dw := argmaxVals(points, u, p)
			if dp >= dw-geom.Eps {
				confirm(p) // p is (tied-)top-1 at the witness
				break
			}
			if confirmed[w] {
				// Numerical disagreement between LP and the exact argmax;
				// the confirmed winner strictly beats p at its own witness,
				// so reject p conservatively.
				break
			}
			confirm(w) // found a new convex point; retry with it constrained
		}
		obs.ConvexPointTest(o, p, confirmed[p])
	}
	sort.Ints(confirmedList)
	return confirmedList, nil
}

// seedUtilities returns the utility vectors whose winners are convex points
// by construction: the d simplex corners and the centroid.
func seedUtilities(d int) []geom.Vector {
	seeds := make([]geom.Vector, 0, d+1)
	for i := 0; i < d; i++ {
		e := geom.NewVector(d)
		e[i] = 1
		seeds = append(seeds, e)
	}
	c := geom.NewVector(d)
	for i := range c {
		c[i] = 1 / float64(d)
	}
	return append(seeds, c)
}

// marginScratch reuses the margin LPs' staging buffers across calls: the
// coefficient arena (objective plus constraint rows), the constraint
// headers, and the free-variable mask. Reused memory is re-zeroed to
// fresh-make state, so the staged problem — and therefore the solve — is
// bit-identical to an allocating version (see BenchmarkMaxMinMargin).
// Pooled because a server runs the scans of concurrent sessions at once.
type marginScratch struct {
	arena []float64
	cons  []lp.Constraint
	free  []bool
}

var marginPool = sync.Pool{New: func() any { return new(marginScratch) }}

// stage returns a zeroed arena of n floats, an empty constraint list and a
// cleared free mask of nv variables, all backed by the scratch.
func (s *marginScratch) stage(n, nv int) ([]float64, []lp.Constraint, []bool) {
	if cap(s.arena) < n {
		s.arena = make([]float64, n)
	} else {
		s.arena = s.arena[:n]
		clear(s.arena)
	}
	if cap(s.free) < nv {
		s.free = make([]bool, nv)
	} else {
		s.free = s.free[:nv]
		clear(s.free)
	}
	return s.arena, s.cons[:0], s.free
}

// maxMinMargin solves max δ s.t. u in simplex, u·(p − q) ≥ δ for all q in
// against (excluding p itself). Returns the witness u and δ.
func maxMinMargin(points []geom.Vector, p int, against []int, o obs.Observer) (geom.Vector, float64, bool) {
	d := len(points[p])
	nv := d + 1 // u plus δ
	s := marginPool.Get().(*marginScratch)
	arena, cons, free := s.stage(nv*(2+len(against)), nv)
	obj := arena[0:nv]
	obj[d] = 1
	one := arena[nv : 2*nv]
	for i := 0; i < d; i++ {
		one[i] = 1
	}
	cons = append(cons, lp.Constraint{Coef: one, Rel: lp.EQ, RHS: 1})
	off := 2 * nv
	pp := points[p]
	for _, q := range against {
		if q == p {
			continue
		}
		// The difference p − q is written straight into the arena row.
		row := arena[off : off+nv]
		off += nv
		pq := points[q]
		for j := 0; j < d; j++ {
			row[j] = pp[j] - pq[j]
		}
		row[d] = -1
		cons = append(cons, lp.Constraint{Coef: row, Rel: lp.GE, RHS: 0})
	}
	s.cons = cons
	free[d] = true
	res := lp.SolveTraced(lp.Problem{NumVars: nv, Objective: obj, Constraints: cons, Free: free}, o)
	// The solver copies the problem into its own scratch and Result.X is
	// freshly allocated, so the buffers can go back to the pool here.
	marginPool.Put(s)
	if res.Status != lp.Optimal {
		return nil, 0, false
	}
	return geom.Vector(res.X[:d]), res.Value, true
}

// dualMargin solves the LP dual of maxMinMargin: min y s.t. y ≥ Σ_q λ_q
// (p − q)_i for every dimension i, Σλ = 1, λ ≥ 0 (one λ per q in against,
// excluding p). Its d+1 rows do not grow with the confirmed set, and by
// strong duality its optimum is maxMinMargin's δ. Returns that value.
func dualMargin(points []geom.Vector, p int, against []int, o obs.Observer) (float64, bool) {
	d := len(points[p])
	nq := 0
	for _, q := range against {
		if q != p {
			nq++
		}
	}
	nv := nq + 1 // λ per confirmed point, plus y
	s := marginPool.Get().(*marginScratch)
	arena, cons, free := s.stage(nv*(2+d), nv)
	obj := arena[0:nv]
	obj[nq] = -1 // maximize −y
	one := arena[nv : 2*nv]
	for j := 0; j < nq; j++ {
		one[j] = 1
	}
	cons = append(cons, lp.Constraint{Coef: one, Rel: lp.EQ, RHS: 1})
	pp := points[p]
	for i := 0; i < d; i++ {
		row := arena[(2+i)*nv : (3+i)*nv]
		j := 0
		for _, q := range against {
			if q == p {
				continue
			}
			row[j] = pp[i] - points[q][i]
			j++
		}
		row[nq] = -1
		cons = append(cons, lp.Constraint{Coef: row, Rel: lp.LE, RHS: 0})
	}
	s.cons = cons
	free[nq] = true
	res := lp.SolveTraced(lp.Problem{NumVars: nv, Objective: obj, Constraints: cons, Free: free}, o)
	marginPool.Put(s)
	if res.Status != lp.Optimal {
		return 0, false
	}
	return -res.Value, true
}

// argmax returns the index with the highest utility w.r.t. u; prefer wins
// ties when it is within Eps of the maximum (pass -1 to disable).
func argmax(points []geom.Vector, u geom.Vector, prefer int) int {
	if prefer < 0 {
		best, bestVal := 0, u.Dot(points[0])
		for i := 1; i < len(points); i++ {
			if v := u.Dot(points[i]); v > bestVal {
				best, bestVal = i, v
			}
		}
		return best
	}
	best, _, _ := argmaxVals(points, u, prefer)
	return best
}

// argmaxVals is argmax for a real candidate (prefer >= 0) that also returns
// the dot products the scan computed — prefer's value and the maximum — so
// callers deciding a tie-top-1 test need no repeat Dot calls. prefer's value
// is tracked inside the single pass instead of being recomputed after it.
func argmaxVals(points []geom.Vector, u geom.Vector, prefer int) (int, float64, float64) {
	best, bestVal := 0, u.Dot(points[0])
	preferVal := bestVal // prefer == 0 is covered by the init
	for i := 1; i < len(points); i++ {
		v := u.Dot(points[i])
		if i == prefer {
			preferVal = v
		}
		if v > bestVal {
			best, bestVal = i, v
		}
	}
	if preferVal >= bestVal-geom.Eps {
		return prefer, preferVal, bestVal
	}
	return best, preferVal, bestVal
}

// ConvexPointsSampling approximates the convex points by sampling `samples`
// utility vectors uniformly from the simplex (always including the corners
// and the centroid) and collecting the distinct top-1 winners.
func ConvexPointsSampling(points []geom.Vector, samples int, rng *rand.Rand) []int {
	if len(points) == 0 {
		return nil
	}
	d := len(points[0])
	seen := map[int]bool{}
	try := func(u geom.Vector) { seen[argmax(points, u, -1)] = true }

	for i := 0; i < d; i++ {
		e := geom.NewVector(d)
		e[i] = 1
		try(e)
	}
	c := geom.NewVector(d)
	for i := range c {
		c[i] = 1 / float64(d)
	}
	try(c)
	for s := 0; s < samples; s++ {
		try(oracle.RandomUtility(rng, d))
	}

	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}
