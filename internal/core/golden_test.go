package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"ist/internal/clock"
	"ist/internal/dataset"
	"ist/internal/geom"
	"ist/internal/lp"
	"ist/internal/obs"
	"ist/internal/oracle"
	"ist/internal/skyband"
)

// goldenPath holds one line per (algorithm, seed, k, budget) case: the
// questions asked (as point-index pairs with the user's verdict), the result
// indices, the certificate and a digest of the event stream. It pins every
// transcript from one commit to the next, so a refactor of an algorithm's
// loop that changes any question, answer or event shows up as a diff.
//
// Only integers and strings are recorded: floats may differ in the last bit
// across architectures (Go may fuse multiply-adds on arm64), the indices
// they decide do not.
//
// Regenerate after an intended behaviour change with
//
//	IST_UPDATE_GOLDEN=1 go test -run TestGoldenTranscripts ./internal/core/
const goldenPath = "testdata/transcripts.golden"

type observedSingle interface {
	Budgeted
	Observable
}

type observedMulti interface {
	BudgetedMulti
	Observable
}

// goldenAlg runs one algorithm variant: unbudgeted through its plain Run
// entry point (cert is nil), budgeted through its budgeted one.
type goldenAlg struct {
	name string
	d    int
	run  func(seed int64, o obs.Observer, band []geom.Vector, k int, user oracle.Oracle, b *Budget) ([]int, *Certificate)
}

// single adapts a single-answer algorithm built by mk.
func single(name string, d int, mk func(seed int64) observedSingle) goldenAlg {
	return goldenAlg{name, d, func(seed int64, o obs.Observer, band []geom.Vector, k int, user oracle.Oracle, b *Budget) ([]int, *Certificate) {
		alg := mk(seed)
		alg.SetObserver(o)
		if b == nil {
			return []int{alg.Run(band, k, user)}, nil
		}
		idx, cert := alg.RunBudgeted(band, k, user, *b)
		return []int{idx}, &cert
	}}
}

// multi adapts a SomeTopK variant asked for min(2, k) points.
func multi(name string, mk func(seed int64) observedMulti) goldenAlg {
	return goldenAlg{name, 3, func(seed int64, o obs.Observer, band []geom.Vector, k int, user oracle.Oracle, b *Budget) ([]int, *Certificate) {
		alg := mk(seed)
		alg.SetObserver(o)
		want := min(2, k)
		if b == nil {
			return alg.RunMulti(band, k, want, user), nil
		}
		idx, cert := alg.RunMultiBudgeted(band, k, want, user, *b)
		return idx, &cert
	}}
}

func goldenAlgs() []goldenAlg {
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	return []goldenAlg{
		single("rh", 3, func(seed int64) observedSingle {
			return NewRHDefault(seed)
		}),
		single("hdpi-sampling", 3, func(seed int64) observedSingle {
			return NewHDPI(HDPIOptions{Mode: ConvexSampling, Rng: rng(seed)})
		}),
		single("hdpi-accurate", 3, func(seed int64) observedSingle {
			return NewHDPI(HDPIOptions{Mode: ConvexExact, Rng: rng(seed)})
		}),
		single("robust-hdpi", 3, func(seed int64) observedSingle {
			return NewRobustHDPI(RobustHDPIOptions{Mode: ConvexExact, Rng: rng(seed)})
		}),
		single("2dpi", 2, func(int64) observedSingle {
			return &TwoDPI{}
		}),
		multi("rh-sometopk", func(seed int64) observedMulti {
			return NewRHMulti(RHOptions{Rng: rng(seed), UseBall: true})
		}),
		multi("hdpi-sometopk", func(seed int64) observedMulti {
			return NewHDPIMulti(HDPIOptions{Mode: ConvexExact, Rng: rng(seed)})
		}),
	}
}

// goldenLine runs one case and renders it as a fixture line.
func goldenLine(a goldenAlg, seed int64, k, maxQ int) string {
	data := rand.New(rand.NewSource(seed))
	ds := dataset.AntiCorrelated(data, 60, a.d)
	band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
	user := oracle.NewUser(oracle.RandomUtility(data, a.d))
	var b *Budget
	if maxQ > 0 {
		b = &Budget{MaxQuestions: maxQ}
	}
	rec := &obs.Recorder{}
	res, cert := a.run(seed+100, rec, band, k, user, b)

	var qs, kinds []string
	counts := map[obs.EventKind]int{}
	h := fnv.New64a()
	for _, e := range rec.Events() {
		if e.Kind == obs.KindAnswerReceived {
			verdict := "<"
			if e.Answer {
				verdict = ">"
			}
			qs = append(qs, fmt.Sprintf("%d%s%d", e.I, verdict, e.J))
		}
		counts[e.Kind]++
		// Duration is the only float-like field; the frozen LP clock keeps
		// it zero, and it is left out of the digest regardless.
		fmt.Fprintf(h, "%s|%d|%d|%t|%t|%d|%d|%d|%s|%s\n",
			e.Kind, e.I, e.J, e.Answer, e.OK, e.Count, e.Before, e.After, e.Status, e.Note)
	}
	for kind, n := range counts {
		kinds = append(kinds, fmt.Sprintf("%s:%d", kind, n))
	}
	sort.Strings(kinds)
	certStr := "-"
	if cert != nil {
		certStr = fmt.Sprintf("%s/%t/q%d/c%d", cert.Reason, cert.Certified, cert.Questions, cert.Candidates)
	}
	return fmt.Sprintf("%s seed=%d k=%d maxq=%d q=[%s] res=%v cert=%s events=%s digest=%016x",
		a.name, seed, k, maxQ, strings.Join(qs, " "), res, certStr, strings.Join(kinds, ","), h.Sum64())
}

// TestGoldenTranscripts compares every case against the committed fixture.
func TestGoldenTranscripts(t *testing.T) {
	lp.SetClock(clock.NewFake(time.Unix(0, 0)))
	t.Cleanup(func() { lp.SetClock(nil) })

	var got []string
	for _, a := range goldenAlgs() {
		for seed := int64(1); seed <= 6; seed++ {
			for _, k := range []int{1, 3, 10} {
				for _, maxQ := range []int{0, 2, 5} {
					got = append(got, goldenLine(a, seed, k, maxQ))
				}
			}
		}
	}
	if os.Getenv("IST_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read fixture (regenerate with IST_UPDATE_GOLDEN=1): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("fixture has %d cases, the grid has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("transcript changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
