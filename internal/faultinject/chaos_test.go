package faultinject

// The chaos suite is the proof of the anytime contract: every fault plan ×
// every algorithm must yield a valid point, an honest certificate, and zero
// escaped panics. "Honest" is checked against the simulated user's hidden
// utility vector — a certificate claiming Certified under a clean (unflipped)
// oracle must name a point that really is in the hidden top-k.

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ist/internal/clock"
	"ist/internal/core"
	"ist/internal/dataset"
	"ist/internal/geom"
	"ist/internal/obs"
	"ist/internal/oracle"
	"ist/internal/skyband"
)

// chaosBand builds a deterministic k-skyband workload in d dimensions.
func chaosBand(seed int64, n, d, k int) []geom.Vector {
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.AntiCorrelated(rng, n, d)
	return skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
}

// chaosPlans is every fault plan the anytime invariant is exercised under.
var chaosPlans = []struct {
	name string
	plan Plan
}{
	{"clean", Plan{}},
	{"panic", Plan{PanicAt: 2}},
	{"delay", Plan{DelayAt: 1, Delay: time.Millisecond}},
	{"flip", Plan{FlipAt: 1}},
	{"lp-corrupt", Plan{LPCorruptAt: 1}},
}

// chaosAlgorithms is every budget-aware single-answer algorithm.
var chaosAlgorithms = []struct {
	name string
	d    int
	make func(seed int64) core.Algorithm
}{
	{"2dpi", 2, func(int64) core.Algorithm { return core.TwoDPI{} }},
	{"rh", 4, func(s int64) core.Algorithm { return core.NewRHDefault(s) }},
	{"hdpi-sampling", 4, func(s int64) core.Algorithm {
		return core.NewHDPI(core.HDPIOptions{Mode: core.ConvexSampling, Rng: rand.New(rand.NewSource(s))})
	}},
	{"hdpi-accurate", 3, func(s int64) core.Algorithm {
		return core.NewHDPI(core.HDPIOptions{Mode: core.ConvexExact, Rng: rand.New(rand.NewSource(s))})
	}},
	{"robust", 3, func(s int64) core.Algorithm {
		return core.NewRobustHDPI(core.RobustHDPIOptions{Rng: rand.New(rand.NewSource(s))})
	}},
}

// TestChaosAnytimeInvariant runs every algorithm under every fault plan with
// a question budget and asserts the anytime contract: a valid point always
// comes back, no panic escapes, the certificate names a reason, and a
// Certified verdict under an unflipped oracle is verified against the hidden
// utility vector.
func TestChaosAnytimeInvariant(t *testing.T) {
	const k = 5
	for _, ac := range chaosAlgorithms {
		for _, pc := range chaosPlans {
			t.Run(ac.name+"/"+pc.name, func(t *testing.T) {
				band := chaosBand(3, 150, ac.d, k)
				hidden := oracle.RandomUtility(rand.New(rand.NewSource(17)), ac.d)
				u := oracle.NewUser(hidden)

				uninstall := InstallLPFaults(pc.plan)
				defer uninstall()

				wrapped := &Algorithm{Inner: ac.make(11), Plan: pc.plan}
				idx, cert := wrapped.RunBudgeted(band, k, u, core.Budget{MaxQuestions: 64})

				if idx < 0 || idx >= len(band) {
					t.Fatalf("invalid point index %d (band size %d)", idx, len(band))
				}
				if cert.Reason == "" {
					t.Fatal("certificate has no stop reason")
				}
				if cert.Questions != u.Questions() {
					t.Fatalf("certificate claims %d questions, oracle answered %d", cert.Questions, u.Questions())
				}
				if cert.Certified && pc.plan.FlipAt == 0 {
					if !oracle.IsTopK(band, hidden, k, band[idx]) {
						t.Fatalf("certificate claims top-%d but point %d is not (reason %s)", k, idx, cert.Reason)
					}
				}
				if cert.Reason == core.StopPanic && cert.Certified {
					t.Fatal("panic-recovered result claims certification")
				}
			})
		}
	}
}

// TestChaosAnytimeInvariantMulti is the same contract for the multi-answer
// variants: valid distinct indices, an honest certificate, no panics.
func TestChaosAnytimeInvariantMulti(t *testing.T) {
	const k, want = 5, 2
	multis := []struct {
		name string
		d    int
		make func(seed int64) core.MultiAlgorithm
	}{
		{"rh-multi", 3, func(s int64) core.MultiAlgorithm {
			return core.NewRHMulti(core.RHOptions{Rng: rand.New(rand.NewSource(s)), UseBall: true})
		}},
		{"hdpi-multi", 3, func(s int64) core.MultiAlgorithm {
			return core.NewHDPIMulti(core.HDPIOptions{Mode: core.ConvexSampling, Rng: rand.New(rand.NewSource(s))})
		}},
	}
	for _, mc := range multis {
		for _, pc := range chaosPlans {
			t.Run(mc.name+"/"+pc.name, func(t *testing.T) {
				band := chaosBand(5, 150, mc.d, k)
				hidden := oracle.RandomUtility(rand.New(rand.NewSource(23)), mc.d)
				u := oracle.NewUser(hidden)

				uninstall := InstallLPFaults(pc.plan)
				defer uninstall()

				o := &Oracle{Inner: u, Plan: pc.plan}
				idx, cert := core.RunMultiBudgeted(mc.make(13), band, k, want, o, core.Budget{MaxQuestions: 64})

				if len(idx) == 0 {
					t.Fatal("no points returned")
				}
				seen := map[int]bool{}
				for _, i := range idx {
					if i < 0 || i >= len(band) {
						t.Fatalf("invalid point index %d (band size %d)", i, len(band))
					}
					if seen[i] {
						t.Fatalf("duplicate point index %d", i)
					}
					seen[i] = true
				}
				if cert.Reason == "" {
					t.Fatal("certificate has no stop reason")
				}
				if cert.Certified && pc.plan.FlipAt == 0 {
					for _, i := range idx {
						if !oracle.IsTopK(band, hidden, k, band[i]) {
							t.Fatalf("certificate claims top-%d but point %d is not", k, i)
						}
					}
				}
			})
		}
	}
}

// TestChaosExhaustedBudgetIsHonest starves a clean run of questions and
// checks the certificate admits it: not certified, reason question-budget,
// and more than k candidates still alive (two answers cannot pin the
// answer down on this workload).
func TestChaosExhaustedBudgetIsHonest(t *testing.T) {
	const k = 3
	band := chaosBand(9, 400, 4, k)
	hidden := oracle.RandomUtility(rand.New(rand.NewSource(31)), 4)
	u := oracle.NewUser(hidden)

	alg := core.NewRHDefault(21)
	idx, cert := core.RunBudgeted(alg, band, k, u, core.Budget{MaxQuestions: 2})

	if idx < 0 || idx >= len(band) {
		t.Fatalf("invalid point index %d", idx)
	}
	if cert.Certified {
		t.Fatal("2-question run claims a certified result")
	}
	if cert.Reason != core.StopQuestions {
		t.Fatalf("reason %q, want %q", cert.Reason, core.StopQuestions)
	}
	if cert.Questions > 2 {
		t.Fatalf("run asked %d questions past a budget of 2", cert.Questions)
	}
	if cert.Candidates <= k {
		t.Fatalf("certificate claims only %d candidates after 2 questions (want > %d)", cert.Candidates, k)
	}
}

// TestChaosInactiveBudgetIsBitIdentical proves the zero-overhead claim: an
// inactive budget must reproduce the plain run exactly — same result, same
// question count, and the same question sequence verbatim (budget checks
// consume no randomness).
func TestChaosInactiveBudgetIsBitIdentical(t *testing.T) {
	const k = 4
	for _, ac := range chaosAlgorithms {
		t.Run(ac.name, func(t *testing.T) {
			band := chaosBand(7, 200, ac.d, k)
			hidden := oracle.RandomUtility(rand.New(rand.NewSource(41)), ac.d)

			plainRec := oracle.NewRecordingOracle(oracle.NewUser(hidden))
			plainIdx := ac.make(19).Run(band, k, plainRec)

			budRec := oracle.NewRecordingOracle(oracle.NewUser(hidden))
			budIdx, cert := core.RunBudgeted(ac.make(19), band, k, budRec, core.Budget{})

			if plainIdx != budIdx {
				t.Fatalf("result diverged: plain %d, inactive-budget %d", plainIdx, budIdx)
			}
			// RobustHDPI's own confidence loop may stop at its internal
			// question cap without certifying — honest either way; the
			// others must certify their converged clean run.
			if ac.name != "robust" && (!cert.Certified || cert.Reason != core.StopConverged) {
				t.Fatalf("inactive-budget clean run not certified converged: %+v", cert)
			}
			if !reflect.DeepEqual(plainRec.Transcript(), budRec.Transcript()) {
				t.Fatalf("question sequence diverged: plain asked %d, inactive-budget asked %d",
					len(plainRec.Transcript().Exchanges), len(budRec.Transcript().Exchanges))
			}
		})
	}
}

// TestChaosDeadlineWalksDegradationLadder drives RH against a fake clock
// whose every read advances time, so the run crosses the half- and
// three-quarter-horizon ladder stages before the deadline lands: the
// certificate must report the deadline stop and the bounding downgrade.
func TestChaosDeadlineWalksDegradationLadder(t *testing.T) {
	const k = 1
	band := chaosBand(13, 800, 5, k)
	hidden := oracle.RandomUtility(rand.New(rand.NewSource(47)), 5)
	u := oracle.NewUser(hidden)

	fake := clock.NewFake(time.Unix(1000, 0))
	fake.SetStep(10 * time.Millisecond)
	deadline := time.Unix(1000, 0).Add(time.Second)

	alg := core.NewRHDefault(29)
	idx, cert := core.RunBudgeted(alg, band, k, u, core.Budget{Deadline: deadline, Clock: fake})

	if idx < 0 || idx >= len(band) {
		t.Fatalf("invalid point index %d", idx)
	}
	if cert.Certified {
		t.Fatal("deadline-starved run claims a certified result")
	}
	if cert.Reason != core.StopDeadline {
		t.Fatalf("reason %q, want %q", cert.Reason, core.StopDeadline)
	}
	if len(cert.Degradations) == 0 {
		t.Fatal("no degradation-ladder steps recorded before the deadline")
	}
}

// TestChaosLPCorruptionDegradesAccurateMode checks the other ladder: a
// corrupted convex-point LP under a budget makes accurate mode fall back to
// sampling (with a note in the certificate) instead of mislabeling points.
func TestChaosLPCorruptionDegradesAccurateMode(t *testing.T) {
	const k = 3
	band := chaosBand(15, 150, 3, k)
	hidden := oracle.RandomUtility(rand.New(rand.NewSource(53)), 3)
	u := oracle.NewUser(hidden)

	uninstall := InstallLPFaults(Plan{LPCorruptAt: 1})
	defer uninstall()

	alg := core.NewHDPI(core.HDPIOptions{Mode: core.ConvexExact, Rng: rand.New(rand.NewSource(37))})
	idx, cert := core.RunBudgeted(alg, band, k, u, core.Budget{MaxQuestions: 128})

	if idx < 0 || idx >= len(band) {
		t.Fatalf("invalid point index %d", idx)
	}
	found := false
	for _, d := range cert.Degradations {
		if len(d) >= len("convex accurate→sampling") && d[:len("convex accurate→sampling")] == "convex accurate→sampling" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no accurate→sampling degradation recorded; degradations: %v", cert.Degradations)
	}
}

// TestChaosLPCorruptionDegradesUnbudgetedAccurateMode is the same fault
// under a plain Run, the way a server session without a budget runs: the
// corrupted LP must switch accurate mode to sampling, visibly in the trace,
// rather than silently reject the candidate it was testing.
func TestChaosLPCorruptionDegradesUnbudgetedAccurateMode(t *testing.T) {
	const k = 3
	band := chaosBand(15, 150, 3, k)
	u := oracle.NewUser(oracle.RandomUtility(rand.New(rand.NewSource(53)), 3))

	uninstall := InstallLPFaults(Plan{LPCorruptAt: 1})
	defer uninstall()

	rec := &obs.Recorder{}
	alg := core.NewHDPI(core.HDPIOptions{Mode: core.ConvexExact, Rng: rand.New(rand.NewSource(37)), Observer: rec})
	if idx := alg.Run(band, k, u); idx < 0 || idx >= len(band) {
		t.Fatalf("invalid point index %d", idx)
	}
	for _, e := range rec.Events() {
		if e.Kind == obs.KindConvexPointTest && e.Note == "sampling" {
			return
		}
	}
	t.Fatal("no sampling convex-point-test event: the corrupted LP was not reported")
}
