package ist

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"ist/internal/clock"
	"ist/internal/lp"
	"ist/internal/obs"
)

// This file is the facade-level determinism regression suite for
// concurrent sessions and the shared preprocessing cache (DESIGN.md §14):
// for every algorithm, sessions running side by side (as a server runs
// them) and cold/warm cache states, the full interactive transcript — every
// question, the result, the question count — and the complete observer event
// stream must be bit-identical to a lone, uncached run.

// runRecord is one session's question transcript, outcome and raw event
// stream.
type runRecord struct {
	Questions [][2]Point
	Index     int
	Count     int
	Certified bool
	Events    []obs.Event
}

func freezeLPClockFacade(t *testing.T) {
	t.Helper()
	lp.SetClock(clock.NewFake(time.Unix(0, 0)))
	t.Cleanup(func() { lp.SetClock(nil) })
}

// runTranscript drives alg through a full session against hidden, capturing
// the question transcript and the raw event stream. It reports failures as
// errors so concurrent sessions can run it off the test goroutine.
func runTranscript(alg Algorithm, band []Point, k int, hidden Point, maxQ int) (runRecord, error) {
	rec := &obs.Recorder{}
	opts := []Option{WithObserver(rec)}
	if maxQ > 0 {
		opts = append(opts, WithBudget(Budget{MaxQuestions: maxQ}))
	}
	s := NewSession(alg, band, k, opts...)
	defer s.Close()
	var r runRecord
	for steps := 0; ; steps++ {
		if steps > 10000 {
			return r, errors.New("session never finished")
		}
		p, q, done := s.Next()
		if done {
			break
		}
		r.Questions = append(r.Questions, [2]Point{p, q})
		if err := s.Answer(hidden.Dot(p) >= hidden.Dot(q)); err != nil {
			return r, err
		}
	}
	_, idx, err := s.Result()
	if err != nil {
		return r, err
	}
	r.Index = idx
	r.Count = s.Questions()
	if cert, ok := s.Certificate(); ok {
		r.Certified = cert.Certified
	}
	r.Events = append([]obs.Event(nil), rec.Events()...)
	return r, nil
}

// mustRun is runTranscript on the test goroutine.
func mustRun(t *testing.T, alg Algorithm, band []Point, k int, hidden Point, maxQ int) runRecord {
	t.Helper()
	r, err := runTranscript(alg, band, k, hidden, maxQ)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runConcurrently runs n sessions of fresh algorithms from mk side by side,
// the way a server runs concurrent users: they share the LP solver's scratch
// pool, the exact scan's staging pool and, through mk, any preprocessing
// cache.
func runConcurrently(t *testing.T, n int, mk func() Algorithm, band []Point, k int, hidden Point, maxQ int) []runRecord {
	t.Helper()
	out := make([]runRecord, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = runTranscript(mk(), band, k, hidden, maxQ)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func sameRun(t *testing.T, name string, want, got runRecord) {
	t.Helper()
	if !reflect.DeepEqual(want.Questions, got.Questions) {
		t.Fatalf("%s: question transcript diverges (%d vs %d questions)", name, len(got.Questions), len(want.Questions))
	}
	if want.Index != got.Index || want.Count != got.Count || want.Certified != got.Certified {
		t.Fatalf("%s: outcome diverges: got (%d, %dq, cert=%v) want (%d, %dq, cert=%v)",
			name, got.Index, got.Count, got.Certified, want.Index, want.Count, want.Certified)
	}
	if !reflect.DeepEqual(want.Events, got.Events) {
		n := len(got.Events)
		if len(want.Events) < n {
			n = len(want.Events)
		}
		at := n
		for i := 0; i < n; i++ {
			if want.Events[i] != got.Events[i] {
				at = i
				break
			}
		}
		t.Fatalf("%s: event streams diverge at event %d (%d vs %d events)",
			name, at, len(got.Events), len(want.Events))
	}
}

// TestConcurrentSessionsTranscriptInvariant runs every algorithm in several
// sessions at once and checks each against a lone run: sessions on a server
// run in parallel and share the solver's pooled scratch, so no state may
// leak from one session's LP solves into another's.
func TestConcurrentSessionsTranscriptInvariant(t *testing.T) {
	freezeLPClockFacade(t)
	rng := rand.New(rand.NewSource(11))
	ds := AntiCorrelated(rng, 300, 5)
	k := 3
	band := Preprocess(ds.Points, k)
	hidden := RandomUtility(rng, 5)

	ds2 := AntiCorrelated(rand.New(rand.NewSource(11)), 300, 2)
	band2 := Preprocess(ds2.Points, k)
	hidden2 := RandomUtility(rng, 2)

	cases := []struct {
		name   string
		make   func() Algorithm
		band   []Point
		hidden Point
	}{
		{"hdpi-accurate", func() Algorithm { return NewHDPIAccurate(5) }, band, hidden},
		{"robust", func() Algorithm { return NewRobustHDPI(5) }, band, hidden},
		{"rh", func() Algorithm { return NewRH(5) }, band, hidden},
		{"2dpi", func() Algorithm { return NewTwoDPI() }, band2, hidden2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := mustRun(t, tc.make(), tc.band, k, tc.hidden, 0)
			for _, got := range runConcurrently(t, 4, tc.make, tc.band, k, tc.hidden, 0) {
				sameRun(t, tc.name, want, got)
			}
		})
	}
}

// TestConcurrentSessionsBudgetExhaustionInvariant repeats the check under a
// question budget tight enough to force the degradation ladder: the stop
// probe sequence, the degradation events, and the uncertified outcome of
// every concurrent session must match a lone run exactly.
func TestConcurrentSessionsBudgetExhaustionInvariant(t *testing.T) {
	freezeLPClockFacade(t)
	rng := rand.New(rand.NewSource(13))
	ds := AntiCorrelated(rng, 300, 5)
	k := 3
	band := Preprocess(ds.Points, k)
	hidden := RandomUtility(rng, 5)

	mk := func() Algorithm { return NewHDPIAccurate(5) }
	for _, budget := range []int{1, 3, 8} {
		want := mustRun(t, mk(), band, k, hidden, budget)
		for _, got := range runConcurrently(t, 4, mk, band, k, hidden, budget) {
			sameRun(t, "budget", want, got)
		}
	}
}

// TestPrepCacheTranscriptInvariant checks the cache's taping contract at the
// facade: a cold populate, a warm hit, and concurrent warm hits must all be
// indistinguishable from an uncached run, and budgeted runs (which may only
// Lookup, never populate) must be indistinguishable whether they hit or
// miss the cache.
func TestPrepCacheTranscriptInvariant(t *testing.T) {
	freezeLPClockFacade(t)
	rng := rand.New(rand.NewSource(17))
	ds := AntiCorrelated(rng, 300, 5)
	k := 3
	band := Preprocess(ds.Points, k)
	hidden := RandomUtility(rng, 5)

	want := mustRun(t, NewHDPIAccurate(5), band, k, hidden, 0)

	cache := NewPreprocessCache(0)
	cold := NewHDPIAccurate(5)
	if !UsePreprocessCache(cold, cache, band, k) {
		t.Fatal("hdpi-accurate should accept a preprocessing cache")
	}
	sameRun(t, "cold populate", want, mustRun(t, cold, band, k, hidden, 0))
	if s := cache.Stats(); s.Misses == 0 {
		t.Fatal("cold run did not populate the cache")
	}

	warm := NewHDPIAccurate(5)
	UsePreprocessCache(warm, cache, band, k)
	sameRun(t, "warm hit", want, mustRun(t, warm, band, k, hidden, 0))
	if s := cache.Stats(); s.Hits == 0 {
		t.Fatal("warm run did not hit the cache")
	}

	shared := func() Algorithm {
		alg := NewHDPIAccurate(5)
		UsePreprocessCache(alg, cache, band, k)
		return alg
	}
	for _, got := range runConcurrently(t, 4, shared, band, k, hidden, 0) {
		sameRun(t, "concurrent warm hit", want, got)
	}

	// Budgeted: compare serial-uncached vs cached (warm) vs cached (cold,
	// where Lookup misses and the run computes locally without populating).
	budget := 5
	wantB := mustRun(t, NewHDPIAccurate(5), band, k, hidden, budget)
	warmB := NewHDPIAccurate(5)
	UsePreprocessCache(warmB, cache, band, k)
	sameRun(t, "budget warm", wantB, mustRun(t, warmB, band, k, hidden, budget))

	fresh := NewPreprocessCache(0)
	coldB := NewHDPIAccurate(5)
	UsePreprocessCache(coldB, fresh, band, k)
	sameRun(t, "budget cold", wantB, mustRun(t, coldB, band, k, hidden, budget))
	if s := fresh.Stats(); s.Entries != 0 {
		t.Fatalf("budgeted run populated the cache (%d entries) — a mid-scan stop could poison it", s.Entries)
	}
}

// TestPreprocessCachedMatchesPreprocess checks the skyband entry point.
func TestPreprocessCachedMatchesPreprocess(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ds := AntiCorrelated(rng, 400, 4)
	k := 5
	want := Preprocess(ds.Points, k)

	cache := NewPreprocessCache(0)
	cold := PreprocessCached(cache, ds.Points, k)
	warm := PreprocessCached(cache, ds.Points, k)
	if !reflect.DeepEqual(want, cold) || !reflect.DeepEqual(want, warm) {
		t.Fatal("cached skyband diverges from Preprocess")
	}
	if s := cache.Stats(); s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("unexpected cache stats %+v", s)
	}
	// Each call owns its slice (vectors alias the dataset, exactly like
	// Preprocess): reordering one caller's band cannot disturb another's.
	cold[0], cold[1] = cold[1], cold[0]
	again := PreprocessCached(cache, ds.Points, k)
	if !reflect.DeepEqual(want, again) {
		t.Fatal("mutating a returned band's slice corrupted the cache")
	}
}
