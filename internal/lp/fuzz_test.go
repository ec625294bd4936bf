package lp

import (
	"math"
	"testing"

	"ist/internal/geom"
)

// fuzzValues is the coefficient alphabet FuzzLP decodes bytes into: small
// integers and simple fractions, plus 0.04 so Beale's example fits after
// rescaling its columns. The spread is deliberately bounded (225): the
// solver's pivot and feasibility tolerances are absolute, and on problems
// mixing 0.02 with 150 in one row it misreports unbounded LPs as optimal.
// No caller builds such a problem; the margin LPs of the exact convex scan
// have coefficients in [-1, 1].
var fuzzValues = []float64{
	0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 9, -9,
	0.5, -0.5, 0.25, -0.25, 0.75, -0.75, 0.04, -0.04,
}

// fuzzByte returns the alphabet index whose value is v (for seeding).
func fuzzByte(v float64) byte {
	for i, w := range fuzzValues {
		if w == v {
			return byte(i)
		}
	}
	panic("fuzzByte: value not in the alphabet")
}

// encodeLP is decodeLP's inverse, used to seed the corpus with known LPs.
func encodeLP(p Problem) []byte {
	data := []byte{byte(p.NumVars - 1), byte(len(p.Constraints))}
	for _, c := range p.Objective {
		data = append(data, fuzzByte(c))
	}
	for _, c := range p.Constraints {
		data = append(data, byte(c.Rel))
		for _, a := range c.Coef {
			data = append(data, fuzzByte(a))
		}
		data = append(data, fuzzByte(c.RHS))
	}
	return data
}

// decodeLP maps bytes to a problem with 1..4 nonnegative variables and at
// most 12 constraints; ok is false when data is too short.
func decodeLP(data []byte) (p Problem, ok bool) {
	if len(data) < 2 {
		return p, false
	}
	d := int(data[0])%4 + 1
	m := int(data[1]) % 13
	data = data[2:]
	val := func() float64 {
		v := fuzzValues[int(data[0])%len(fuzzValues)]
		data = data[1:]
		return v
	}
	if len(data) < d+m*(d+2) {
		return p, false
	}
	p.NumVars = d
	p.Objective = make([]float64, d)
	for i := range p.Objective {
		p.Objective[i] = val()
	}
	for r := 0; r < m; r++ {
		c := Constraint{Rel: Relation(int(data[0]) % 3), Coef: make([]float64, d)}
		data = data[1:]
		for i := range c.Coef {
			c.Coef[i] = val()
		}
		c.RHS = val()
		p.Constraints = append(p.Constraints, c)
	}
	return p, true
}

// bruteTight is the tight end of the oracle's tolerance bracket: a point or
// ray counts as feasible at a tolerance when every row's violation, relative
// to the row's magnitude there, is within it. The loose end (looseTol)
// widens with the problem's coefficient spread, because the solver's pivot
// and feasibility tolerances are absolute: on rows mixing small and large
// coefficients its rounding error grows by their ratio. Inputs the two ends
// classify differently sit on the solver's tolerance boundary and are
// skipped as ambiguous; values and points are checked against the loose
// end.
const bruteTight = geom.TieEps

// looseTol is geom.FeasEps times the ratio of the largest to the smallest
// nonzero constraint coefficient or RHS magnitude (at least 100×FeasEps).
func looseTol(p Problem) float64 {
	lo, hi := math.Inf(1), 0.0
	note := func(v float64) {
		if v = math.Abs(v); v > 0 {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	for _, c := range p.Constraints {
		for _, a := range c.Coef {
			note(a)
		}
		note(c.RHS)
	}
	return geom.FeasEps * math.Max(100, hi/lo)
}

// rowViolation is how far x violates Coef·x Rel RHS, and the magnitude
// Σ|Coef_j x_j| of the row's terms there.
func rowViolation(c Constraint, x []float64, rhs float64) (v, mag float64) {
	lhs := 0.0
	for j, a := range c.Coef {
		lhs += a * x[j]
		mag += math.Abs(a * x[j])
	}
	switch c.Rel {
	case LE:
		v = lhs - rhs
	case GE:
		v = rhs - lhs
	default:
		v = math.Abs(lhs - rhs)
	}
	return v, mag
}

// maxViolation is the worst violation of x over all rows and x >= 0, each
// relative to the row's magnitude at x. homogeneous evaluates the recession
// cone (every RHS 0).
func maxViolation(p Problem, x []float64, homogeneous bool) float64 {
	worst := 0.0
	for _, v := range x {
		worst = math.Max(worst, -v/(1+math.Abs(v)))
	}
	for _, c := range p.Constraints {
		rhs := c.RHS
		if homogeneous {
			rhs = 0
		}
		v, mag := rowViolation(c, x, rhs)
		worst = math.Max(worst, v/(1+mag+math.Abs(rhs)))
	}
	return worst
}

// forSubsets calls f with every k-subset of 0..n-1 (in one reused slice).
func forSubsets(n, k int, f func([]int)) {
	idx := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			f(idx)
			return
		}
		for i := start; i <= n-(k-depth); i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

// vertices enumerates the basic solutions of the problem's d-variable
// system: every choice of `pick` tight hyperplanes among the constraint rows
// and the coordinate planes x_j = 0, plus the `extra` rows (always tight),
// solved with geom's Gaussian elimination. homogeneous zeroes every RHS.
func vertices(p Problem, pick int, extra []Constraint, homogeneous bool, f func(x []float64)) {
	d := p.NumVars
	m := len(p.Constraints)
	forSubsets(m+d, pick, func(sub []int) {
		a := geom.NewMatrix(d, d)
		b := geom.NewVector(d)
		row := 0
		for _, c := range extra {
			copy(a.Row(row), c.Coef)
			b[row] = c.RHS
			row++
		}
		for _, s := range sub {
			if s < m {
				copy(a.Row(row), p.Constraints[s].Coef)
				if !homogeneous {
					b[row] = p.Constraints[s].RHS
				}
			} else {
				a.Set(row, s-m, 1)
			}
			row++
		}
		if x, ok := a.SolveSquare(b); ok {
			f(x)
		}
	})
}

// bruteForce is the independent oracle for a nonnegative-variable LP. The
// feasible region is pointed (x >= 0), so it is empty exactly when it has no
// vertex, and a bounded optimum is attained at a vertex. Unboundedness is
// decided on the recession cone {r >= 0 : A r Rel 0}, cut by Σr = 1 into a
// polytope whose vertices are its extreme rays. Each decision is reported at
// both bracket tolerances.
type bruteResult struct {
	feasTight, feasLoose bool
	unbTight, unbLoose   bool    // an improving ray exists at each tolerance
	bestTight, bestLoose float64 // max objective over vertices feasible at each tolerance
	objScale             float64
	loose                float64
}

func bruteForce(p Problem) bruteResult {
	d := p.NumVars
	br := bruteResult{bestTight: math.Inf(-1), bestLoose: math.Inf(-1), objScale: 1, loose: looseTol(p)}
	for _, c := range p.Objective {
		br.objScale += math.Abs(c)
	}
	vertices(p, d, nil, false, func(x []float64) {
		v := maxViolation(p, x, false)
		val := 0.0
		for j, c := range p.Objective {
			val += c * x[j]
		}
		if v <= br.loose {
			br.feasLoose = true
			br.bestLoose = math.Max(br.bestLoose, val)
		}
		if v <= bruteTight {
			br.feasTight = true
			br.bestTight = math.Max(br.bestTight, val)
		}
	})
	ones := make([]float64, d)
	for j := range ones {
		ones[j] = 1
	}
	sum := []Constraint{{Coef: ones, Rel: EQ, RHS: 1}}
	vertices(p, d-1, sum, true, func(r []float64) {
		v := maxViolation(p, r, true)
		gain := 0.0
		for j, c := range p.Objective {
			gain += c * r[j]
		}
		gain /= br.objScale
		if v <= bruteTight && gain > br.loose {
			br.unbTight = true
		}
		if v <= br.loose && gain > bruteTight {
			br.unbLoose = true
		}
	})
	return br
}

// FuzzLP checks Solve against brute-force vertex enumeration on problems
// with at most 4 variables and 12 constraints: the status must match and an
// optimum must agree within geom.FeasEps, relative to its magnitude and
// widened by the coefficient spread (looseTol); the returned point must be
// feasible and attain the reported value.
func FuzzLP(f *testing.F) {
	// Zero-RHS GE rows: the margin LPs of the exact convex-point scan.
	f.Add(encodeLP(Problem{
		NumVars:   3,
		Objective: []float64{0, 0, 1},
		Constraints: []Constraint{
			{Coef: []float64{1, 1, 0}, Rel: EQ, RHS: 1},
			{Coef: []float64{0.5, -0.25, -1}, Rel: GE, RHS: 0},
			{Coef: []float64{-0.75, 0.5, -1}, Rel: GE, RHS: 0},
			{Coef: []float64{0.25, 0.04, -1}, Rel: GE, RHS: 0},
		},
	}))
	f.Add(encodeLP(Problem{
		NumVars:   2,
		Objective: []float64{1, 2},
		Constraints: []Constraint{
			{Coef: []float64{1, -1}, Rel: GE, RHS: 0},
			{Coef: []float64{-1, 2}, Rel: GE, RHS: 0},
			{Coef: []float64{1, 1}, Rel: LE, RHS: 4},
		},
	}))
	// Redundant rows: duplicated equalities and a repeated inequality.
	f.Add(encodeLP(Problem{
		NumVars:   3,
		Objective: []float64{1, 2, 3},
		Constraints: []Constraint{
			{Coef: []float64{1, 1, 1}, Rel: EQ, RHS: 1},
			{Coef: []float64{1, 1, 1}, Rel: EQ, RHS: 1},
			{Coef: []float64{2, 2, 2}, Rel: EQ, RHS: 2},
			{Coef: []float64{0, 0, 1}, Rel: LE, RHS: 0.5},
			{Coef: []float64{0, 0, 1}, Rel: LE, RHS: 0.5},
		},
	}))
	// Beale's degenerate example, with x2 scaled by 30 and x3 by 1/25 so
	// its coefficients fit the alphabet (same vertices up to that scaling,
	// same optimum 0.05). Its exact form, which cycles under Dantzig's rule,
	// is TestBealeCyclingExample.
	f.Add(encodeLP(Problem{
		NumVars:   4,
		Objective: []float64{0.75, -5, 0.5, -6},
		Constraints: []Constraint{
			{Coef: []float64{0.25, -2, -1, 9}, Rel: LE, RHS: 0},
			{Coef: []float64{0.5, -3, -0.5, 3}, Rel: LE, RHS: 0},
			{Coef: []float64{0, 0, 1, 0}, Rel: LE, RHS: 0.04},
		},
	}))
	// Infeasible and unbounded shapes.
	f.Add(encodeLP(Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Coef: []float64{1, 1}, Rel: LE, RHS: 1},
			{Coef: []float64{1, 1}, Rel: GE, RHS: 2},
		},
	}))
	f.Add(encodeLP(Problem{
		NumVars:   2,
		Objective: []float64{1, -1},
		Constraints: []Constraint{
			{Coef: []float64{-1, 1}, Rel: LE, RHS: 1},
		},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := decodeLP(data)
		if !ok {
			return
		}
		br := bruteForce(p)
		if br.feasTight != br.feasLoose || (br.feasTight && br.unbTight != br.unbLoose) {
			return // on the tolerance boundary: either answer is defensible
		}
		want := Infeasible
		switch {
		case br.feasTight && br.unbTight:
			want = Unbounded
		case br.feasTight:
			want = Optimal
		}
		res := Solve(p)
		if res.Status != want {
			t.Fatalf("status %v, brute force %v (problem %+v)", res.Status, want, p)
		}
		if want != Optimal {
			return
		}
		tol := br.loose * br.objScale * (1 + math.Abs(br.bestTight))
		if res.Value < br.bestTight-tol || res.Value > br.bestLoose+tol {
			t.Fatalf("optimum %v, brute force %v (loose %v) (problem %+v)", res.Value, br.bestTight, br.bestLoose, p)
		}
		if v := maxViolation(p, res.X, false); v > br.loose {
			t.Fatalf("returned X %v violates the constraints by %g (problem %+v)", res.X, v, p)
		}
		val := 0.0
		for j, c := range p.Objective {
			val += c * res.X[j]
		}
		if math.Abs(val-res.Value) > tol {
			t.Fatalf("Value %v but Objective·X = %v", res.Value, val)
		}
	})
}
