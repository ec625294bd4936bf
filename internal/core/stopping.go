package core

import (
	"ist/internal/geom"
	"ist/internal/oracle"
)

// lemma55 implements stopping condition 2 (Lemma 5.5): given the vertices of
// the current utility range R and a probe utility vector u inside R, it
// checks which of the top-k points w.r.t. u are guaranteed to be among the
// top-k for every utility vector in R. A point p_j can displace p_i only
// if some u' in R has u'·p_j > u'·p_i, i.e. some vertex of R lies strictly
// above the hyperplane h_{j,i}; if fewer than k points can displace p_i,
// p_i is certainly top-k.
//
// It returns up to want qualifying point indices, in the probe's ranking
// order, and whether want of them exist. The single-answer algorithms pass
// want = 1; the SomeTopK variants of Section 6.5 pass their want.
func lemma55(points []geom.Vector, k int, rVerts []geom.Vector, probe geom.Vector, want int) ([]int, bool) {
	if len(rVerts) == 0 {
		return nil, false
	}
	var qualified []int
	for _, i := range oracle.TopK(points, probe, k) {
		if countPossibleBeaters(points, i, rVerts, k) < k {
			qualified = append(qualified, i)
			if len(qualified) >= want {
				return qualified, true
			}
		}
	}
	return qualified, false
}

// countPossibleBeaters counts points that strictly beat points[i] somewhere
// in the region spanned by rVerts, stopping early at limit.
func countPossibleBeaters(points []geom.Vector, i int, rVerts []geom.Vector, limit int) int {
	pi := points[i]
	// Pre-compute the utility of p_i at every region vertex once.
	base := make([]float64, len(rVerts))
	for vi, v := range rVerts {
		base[vi] = v.Dot(pi)
	}
	count := 0
	for j, pj := range points {
		if j == i {
			continue
		}
		for vi, v := range rVerts {
			if v.Dot(pj) > base[vi]+geom.Eps {
				count++
				break
			}
		}
		if count >= limit {
			return count
		}
	}
	return count
}

// argmaxAt returns the index of the highest-utility point w.r.t. u.
func argmaxAt(points []geom.Vector, u geom.Vector) int {
	best, bestVal := 0, u.Dot(points[0])
	for i := 1; i < len(points); i++ {
		if v := u.Dot(points[i]); v > bestVal {
			best, bestVal = i, v
		}
	}
	return best
}
