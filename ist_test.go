package ist

import (
	"math/rand"
	"strings"
	"testing"
)

func TestSolveEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := AntiCorrelated(rng, 300, 4)
	k := 10
	band := Preprocess(ds.Points, k)
	u := RandomUtility(rng, 4)
	for _, alg := range []Algorithm{NewRH(7), NewHDPI(7), NewHDPIAccurate(7)} {
		user := NewUser(u)
		res := Solve(alg, band, k, user)
		if !IsTopK(band, u, k, res.Point) {
			t.Fatalf("%s returned non-top-%d point", alg.Name(), k)
		}
		if res.Questions != user.Questions() {
			t.Fatalf("question accounting mismatch: %d vs %d", res.Questions, user.Questions())
		}
		if res.Index < 0 || res.Index >= len(band) {
			t.Fatalf("bad index %d", res.Index)
		}
		if !res.Point.Equal(band[res.Index]) {
			t.Fatal("Point does not match Index")
		}
	}
}

// TestSolveCertificate checks that Solve certifies exactly the budgeted
// runs: an exhausted question budget yields an uncertified certificate
// naming the budget, and a plain run yields none.
func TestSolveCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := AntiCorrelated(rng, 600, 4)
	k := 3
	band := Preprocess(ds.Points, k)
	u := RandomUtility(rng, 4)

	res := Solve(NewRH(5), band, k, NewUser(u), WithBudget(Budget{MaxQuestions: 2}))
	if res.Certificate == nil {
		t.Fatal("budgeted Solve returned no certificate")
	}
	if res.Certificate.Certified || res.Certificate.Reason != StopQuestions {
		t.Fatalf("certificate = %+v, want uncertified %q", *res.Certificate, StopQuestions)
	}
	if res.Questions > 2 {
		t.Fatalf("budgeted Solve asked %d questions past a budget of 2", res.Questions)
	}
	if res := Solve(NewRH(5), band, k, NewUser(u)); res.Certificate != nil {
		t.Fatalf("plain Solve returned certificate %+v", *res.Certificate)
	}
}

func TestSolveTwoD(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := IslandLike(rng, 500)
	k := 5
	band := Preprocess(ds.Points, k)
	u := RandomUtility(rng, 2)
	res := Solve(NewTwoDPI(), band, k, NewUser(u))
	if !IsTopK(band, u, k, res.Point) {
		t.Fatal("2D-PI returned non-top-k point")
	}
}

func TestEpsilonForTopK(t *testing.T) {
	pts := []Point{{0, 1}, {0.3, 0.7}, {0.5, 0.8}, {0.7, 0.4}, {1, 0}}
	u := Point{0.4, 0.6}
	// f1 = 0.68 (p3), f2 = 0.6 (p1): eps = 1 - 0.6/0.68.
	got := EpsilonForTopK(pts, u, 2)
	want := 1 - 0.6/0.68
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("eps = %v, want %v", got, want)
	}
	if EpsilonForTopK(nil, u, 1) != 0 {
		t.Fatal("empty dataset eps must be 0")
	}
}

func TestBaselineConstructorsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := AntiCorrelated(rng, 120, 3)
	k := 5
	band := Preprocess(ds.Points, k)
	u := RandomUtility(rng, 3)
	eps := EpsilonForTopK(band, u, k)
	algs := []Algorithm{
		NewUHRandom(eps, 1), NewUHSimplex(eps, 1),
		NewUHRandomAdapt(1), NewUHSimplexAdapt(1),
		NewUtilityApprox(eps), NewPreferenceLearning(1), NewActiveRanking(1),
	}
	for _, alg := range algs {
		res := Solve(alg, band, k, NewUser(u))
		if res.Index < 0 || res.Index >= len(band) {
			t.Fatalf("%s: bad index", alg.Name())
		}
	}
	// 2-d-only baselines.
	ds2 := IslandLike(rng, 200)
	band2 := Preprocess(ds2.Points, k)
	u2 := RandomUtility(rng, 2)
	for _, alg := range []Algorithm{NewMedian(), NewHull(), NewMedianAdapt(), NewHullAdapt()} {
		res := Solve(alg, band2, k, NewUser(u2))
		if res.Index < 0 || res.Index >= len(band2) {
			t.Fatalf("%s: bad index", alg.Name())
		}
	}
}

func TestMultiConstructors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := AntiCorrelated(rng, 100, 3)
	k := 6
	band := Preprocess(ds.Points, k)
	u := RandomUtility(rng, 3)
	for _, alg := range []MultiAlgorithm{NewRHMulti(5), NewHDPIMulti(5)} {
		got := alg.RunMulti(band, k, 3, NewUser(u))
		if len(got) != 3 {
			t.Fatalf("%s returned %d points", alg.Name(), len(got))
		}
	}
}

func TestConsoleOracle(t *testing.T) {
	in := strings.NewReader("2\nbogus\n1\n")
	var out strings.Builder
	c := NewConsoleOracle(in, &out, []string{"price", "power"})
	if c.Prefer(Point{0.1, 0.9}, Point{0.9, 0.1}) {
		t.Fatal("answer 2 must mean the second point")
	}
	if !c.Prefer(Point{0.1, 0.9}, Point{0.9, 0.1}) {
		t.Fatal("bogus then 1 must mean the first point")
	}
	// EOF defaults to the first point.
	if !c.Prefer(Point{0.5, 0.5}, Point{0.4, 0.4}) {
		t.Fatal("EOF must default to the first point")
	}
	if c.Questions() != 3 {
		t.Fatalf("Questions = %d", c.Questions())
	}
	text := out.String()
	if !strings.Contains(text, "price=") || !strings.Contains(text, "Please answer") {
		t.Fatalf("unexpected console transcript:\n%s", text)
	}
}

func TestConsoleOracleDenormalize(t *testing.T) {
	in := strings.NewReader("1\n")
	var out strings.Builder
	c := NewConsoleOracle(in, &out, []string{"price"})
	c.Denormalize = func(p Point) []string { return []string{"$12000"} }
	c.Prefer(Point{0.5}, Point{0.6})
	if !strings.Contains(out.String(), "price=$12000") {
		t.Fatalf("denormalized display missing:\n%s", out.String())
	}
}
