package hull

import (
	"math/rand"
	"reflect"
	"testing"

	"ist/internal/dataset"
	"ist/internal/geom"
	"ist/internal/skyband"
)

// bruteMargin brackets FuzzConvexPointsExact's oracle: a point is clearly
// convex when it beats every other point by at least bruteMargin somewhere on
// the simplex, and clearly not convex when it loses to some point by more
// than bruteMargin everywhere. The exact scan's own tie tolerance
// (geom.Eps) lies strictly inside the bracket.
const bruteMargin = 1e-6

// topRegionNonEmpty reports whether {u in simplex : u·(p−q) >= tau for all
// q != p} is non-empty, by vertex enumeration: the region is a polytope in
// the hyperplane Σu = 1, so it is non-empty exactly when some choice of d−1
// tight constraints (margin rows or coordinate planes u_i = 0) has a
// solution satisfying all the others. Independent of the LP solver: only
// geom's Gaussian elimination is used.
func topRegionNonEmpty(points []geom.Vector, p int, tau float64) bool {
	d := len(points[p])
	var rows []geom.Vector
	for q := range points {
		if q == p {
			continue
		}
		diff := points[p].Sub(points[q])
		clearlyBelow := true
		for _, v := range diff {
			if v >= tau {
				clearlyBelow = false
				break
			}
		}
		if clearlyBelow {
			return false // a convex combination of entries < tau is < tau
		}
		rows = append(rows, diff)
	}
	feasible := func(u geom.Vector) bool {
		for _, v := range u {
			if v < -geom.TieEps {
				return false
			}
		}
		for _, r := range rows {
			if r.Dot(u) < tau-geom.TieEps {
				return false
			}
		}
		return true
	}
	if d == 1 {
		return feasible(geom.Vector{1})
	}
	found := false
	idx := make([]int, d-1)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if found {
			return
		}
		if depth == d-1 {
			a := geom.NewMatrix(d, d)
			b := geom.NewVector(d)
			for j := 0; j < d; j++ {
				a.Set(0, j, 1)
			}
			b[0] = 1
			for k, s := range idx {
				if s < len(rows) {
					copy(a.Row(k+1), rows[s])
					b[k+1] = tau
				} else {
					a.Set(k+1, s-len(rows), 1)
				}
			}
			if u, ok := a.SolveSquare(b); ok && feasible(u) {
				found = true
			}
			return
		}
		for i := start; i <= len(rows)+d-(d-1-depth); i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return found
}

// bruteConvex returns the points whose top-1 region at margin tau is
// non-empty (see topRegionNonEmpty), in index order.
func bruteConvex(points []geom.Vector, tau float64) []int {
	out := []int{}
	for p := range points {
		if topRegionNonEmpty(points, p, tau) {
			out = append(out, p)
		}
	}
	return out
}

func isSubset(a, b []int) bool {
	in := map[int]bool{}
	for _, i := range b {
		in[i] = true
	}
	for _, i := range a {
		if !in[i] {
			return false
		}
	}
	return true
}

// decodePoints maps bytes to up to 40 points in (0,1]^d, d in 2..4, on a
// 1/256 grid (so exact ties and duplicates are common).
func decodePoints(data []byte) []geom.Vector {
	if len(data) < 1 {
		return nil
	}
	d := int(data[0])%3 + 2
	data = data[1:]
	var pts []geom.Vector
	for len(data) >= d && len(pts) < 40 {
		p := geom.NewVector(d)
		for j := range p {
			p[j] = (float64(data[j]) + 1) / 256
		}
		pts = append(pts, p)
		data = data[d:]
	}
	return pts
}

// FuzzConvexPointsExact checks the exact scan against independent
// oracles at n <= 40: vertex enumeration (every clearly convex point is
// reported, every reported point is convex within the bracket, and the sets
// are equal whenever no point sits inside the bracket), the 2-d upper
// envelope at d = 2 (bracketed the same way: the envelope drops points tied
// top-1 only at a single utility), and dense sampling, whose winners are
// always a subset.
func FuzzConvexPointsExact(f *testing.F) {
	f.Add([]byte{0, 255, 0, 0, 255, 100, 100, 200, 30, 30, 200})
	f.Add([]byte{1, 10, 200, 90, 200, 10, 90, 90, 90, 200, 128, 128, 128, 60, 60, 60})
	f.Add([]byte{2, 1, 2, 3, 4, 250, 1, 1, 1, 1, 250, 1, 1, 1, 1, 250, 1, 1, 1, 1, 250, 90, 90, 90, 90})
	// Duplicates and collinear points (ties at a single utility).
	f.Add([]byte{0, 255, 0, 255, 0, 0, 255, 127, 127, 63, 191})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3; i++ {
		data := make([]byte, 1+30*(i+2))
		rng.Read(data)
		data[0] = byte(i)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := decodePoints(data)
		if len(pts) == 0 {
			return
		}
		d := len(pts[0])
		got, err := ConvexPointsExact(pts, nil, nil)
		if err != nil {
			t.Fatalf("exact scan failed: %v", err)
		}
		sure := bruteConvex(pts, bruteMargin)
		loose := bruteConvex(pts, -bruteMargin)
		if !isSubset(sure, got) || !isSubset(got, loose) {
			t.Fatalf("exact %v outside the brute-force bracket [%v, %v]", got, sure, loose)
		}
		if reflect.DeepEqual(sure, loose) && !reflect.DeepEqual(got, sure) {
			t.Fatalf("exact %v, brute force %v", got, sure)
		}
		if d == 2 {
			env := ConvexPoints2D(pts)
			if !isSubset(sure, env) || !isSubset(env, loose) {
				t.Fatalf("envelope %v outside the brute-force bracket [%v, %v]", env, sure, loose)
			}
			if reflect.DeepEqual(sure, loose) && !reflect.DeepEqual(got, env) {
				t.Fatalf("exact %v, envelope %v", got, env)
			}
		}
		sampled := ConvexPointsSampling(pts, 2000, rand.New(rand.NewSource(int64(len(data)))))
		if !isSubset(sampled, got) {
			t.Fatalf("sampled winners %v not all in exact %v", sampled, got)
		}
	})
}

// servedBand is the k-skyband a served hdpi-accurate session scans.
func servedBand(t *testing.T, name string, n, d, k int, seed int64) []geom.Vector {
	t.Helper()
	ds, err := dataset.ByName(name, rand.New(rand.NewSource(seed)), n, d)
	if err != nil {
		t.Fatal(err)
	}
	return skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
}

// TestConvexPointsExactGolden pins the exact convex-point sets of the
// served hdpi-* workloads' data (car, n=1000, d=4, k=20) for dataset seeds
// 1-3, as skyband indices. HD-PI builds its partitions, and therefore its
// questions, from these sets, so a solver change that moves one of them
// changes served transcripts.
func TestConvexPointsExactGolden(t *testing.T) {
	golden := map[int64][]int{
		1: {6, 13, 15, 21, 29, 83, 90, 110, 129, 132, 135, 136, 148, 160, 171, 179, 200, 205, 207, 213, 219, 233, 248, 257, 264, 271, 300, 308, 330, 341, 369, 372, 376, 391, 397, 411, 421, 437, 440, 441, 445, 448, 451},
		2: {11, 26, 40, 43, 52, 60, 71, 84, 86, 89, 106, 122, 126, 135, 136, 140, 146, 175, 180, 192, 198, 213, 248, 251, 259, 266, 267, 268, 270, 278, 293, 294, 298, 305, 307, 309, 316, 320, 351, 353, 357, 360, 375, 380, 385, 403, 409, 419, 428, 432, 458, 478},
		3: {25, 27, 36, 47, 52, 86, 111, 121, 177, 183, 184, 200, 248, 260, 269, 275, 284, 286, 303, 304, 310, 317, 324, 339, 344, 376, 383, 388, 392, 393, 412, 428, 459, 469, 505},
	}
	for seed, want := range golden {
		band := servedBand(t, "car", 1000, 4, 20, seed)
		got, err := ConvexPointsExact(band, nil, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: convex points %v, want %v", seed, got, want)
		}
	}
}

// TestConvexPointsExactNoSilentMislabel covers the two served-size inputs
// on which the margin LP of the exact scan used to come back non-Optimal:
// the strict scan reported an error, and the non-strict scan a server then
// ran silently rejected the candidate, so weather (n=2000, d=4, k=5) lost 8
// of its 64 convex points — one of them top-1 under dense sampling. The
// scan must now succeed and contain every sampled winner.
func TestConvexPointsExactNoSilentMislabel(t *testing.T) {
	cases := []struct {
		name    string
		n, d, k int
		seed    int64
	}{
		{"weather", 2000, 4, 5, 1},
		{"anti", 2000, 5, 3, 3},
	}
	for _, c := range cases {
		band := servedBand(t, c.name, c.n, c.d, c.k, c.seed)
		got, err := ConvexPointsExact(band, nil, nil)
		if err != nil {
			t.Fatalf("%s: exact scan: %v", c.name, err)
		}
		sampled := ConvexPointsSampling(band, 100000, rand.New(rand.NewSource(c.seed)))
		if !isSubset(sampled, got) {
			t.Fatalf("%s: a sampled top-1 winner is missing from the %d exact convex points", c.name, len(got))
		}
	}
}
