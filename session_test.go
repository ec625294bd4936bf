package ist

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"ist/internal/faultinject"
)

func TestSessionDrivesToCompletion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := AntiCorrelated(rng, 400, 3)
	k := 5
	band := Preprocess(ds.Points, k)
	hidden := RandomUtility(rng, 3)

	s := NewSession(NewRH(9), band, k)
	defer s.Close()
	questions := 0
	for {
		p, q, done := s.Next()
		if done {
			break
		}
		if err := s.Answer(hidden.Dot(p) >= hidden.Dot(q)); err != nil {
			t.Fatal(err)
		}
		questions++
		if questions > 10000 {
			t.Fatal("session never finished")
		}
	}
	pt, idx, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if idx < 0 || idx >= len(band) || !pt.Equal(band[idx]) {
		t.Fatalf("bad result %v / %d", pt, idx)
	}
	if !IsTopK(band, hidden, k, pt) {
		t.Fatal("session result not top-k")
	}
	if s.Questions() != questions {
		t.Fatalf("Questions = %d, want %d", s.Questions(), questions)
	}
}

func TestSessionMatchesDirectRun(t *testing.T) {
	// Driving via Session must produce the same answer and question count
	// as a direct Solve with the same seed and the same user.
	rng := rand.New(rand.NewSource(2))
	ds := AntiCorrelated(rng, 300, 3)
	k := 4
	band := Preprocess(ds.Points, k)
	hidden := RandomUtility(rng, 3)

	direct := Solve(NewRH(33), band, k, NewUser(hidden))

	s := NewSession(NewRH(33), band, k)
	defer s.Close()
	for {
		p, q, done := s.Next()
		if done {
			break
		}
		s.Answer(hidden.Dot(p) >= hidden.Dot(q))
	}
	_, idx, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if idx != direct.Index || s.Questions() != direct.Questions {
		t.Fatalf("session (%d, %dq) != direct (%d, %dq)",
			idx, s.Questions(), direct.Index, direct.Questions)
	}
}

func TestSessionNextIdempotentWhilePending(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := AntiCorrelated(rng, 200, 3)
	band := Preprocess(ds.Points, 3)
	s := NewSession(NewRH(1), band, 3)
	defer s.Close()
	p1, q1, done := s.Next()
	if done {
		t.Skip("algorithm finished without questions")
	}
	p2, q2, done2 := s.Next()
	if done2 || !p1.Equal(p2) || !q1.Equal(q2) {
		t.Fatal("Next must repeat the pending question until answered")
	}
}

func TestSessionAnswerWithoutQuestion(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := AntiCorrelated(rng, 100, 2)
	band := Preprocess(ds.Points, 2)
	s := NewSession(NewRH(1), band, 2)
	defer s.Close()
	if err := s.Answer(true); err != ErrNoPendingQuestion {
		t.Fatalf("Answer before Next: err = %v, want ErrNoPendingQuestion", err)
	}
}

func TestSessionResultBeforeDone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := AntiCorrelated(rng, 200, 3)
	band := Preprocess(ds.Points, 3)
	s := NewSession(NewRH(1), band, 3)
	defer s.Close()
	if _, _, done := s.Next(); done {
		t.Skip("no interaction needed")
	}
	if _, _, err := s.Result(); err == nil {
		t.Fatal("Result before done must error")
	}
}

func TestSessionCloseReleasesGoroutine(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ds := AntiCorrelated(rng, 500, 4)
	band := Preprocess(ds.Points, 5)

	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		s := NewSession(NewRH(int64(i)), band, 5)
		s.Next() // force at least the setup
		s.Close()
	}
	// Give the aborted goroutines a moment to unwind.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestSessionPanicBeforeFirstQuestion(t *testing.T) {
	// The algorithm dies in setup, before any question exists. The old
	// behaviour re-panicked on the session goroutine and took the process
	// down; now the session enters a terminal error state and every call
	// returns instead of blocking.
	rng := rand.New(rand.NewSource(8))
	ds := AntiCorrelated(rng, 200, 3)
	band := Preprocess(ds.Points, 3)
	alg := &faultinject.Algorithm{Inner: NewRH(1), Plan: faultinject.Plan{PanicAt: 1}}
	s := NewSession(alg, band, 3)
	defer s.Close()
	if _, _, done := s.Next(); !done {
		t.Fatal("Next on a failed session must report done")
	}
	if s.Err() == nil {
		t.Fatal("Err must report the panic")
	}
	if err := s.Answer(true); err == nil {
		t.Fatal("Answer on a failed session must error, not block")
	}
	if _, _, err := s.Result(); err == nil {
		t.Fatal("Result on a failed session must return the error")
	}
}

func TestSessionPanicMidInteraction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := AntiCorrelated(rng, 400, 3)
	k := 5
	band := Preprocess(ds.Points, k)
	hidden := RandomUtility(rng, 3)
	alg := &faultinject.Algorithm{Inner: NewRH(3), Plan: faultinject.Plan{PanicAt: 2}}
	s := NewSession(alg, band, k)
	defer s.Close()
	for i := 0; i < 100; i++ {
		p, q, done := s.Next()
		if done {
			if s.Err() == nil {
				t.Fatal("session finished without surfacing the scheduled panic")
			}
			if s.Questions() != 1 {
				t.Fatalf("answered %d questions before the question-2 panic, want 1", s.Questions())
			}
			return
		}
		if err := s.Answer(hidden.Dot(p) >= hidden.Dot(q)); err != nil {
			// The panic can also surface here, racing the next question.
			if s.Err() == nil {
				t.Fatalf("Answer failed without a session error: %v", err)
			}
			return
		}
	}
	t.Fatal("scheduled panic never surfaced")
}

func TestSessionCloseRacesAnswer(t *testing.T) {
	// A Close (e.g. from an expiry reaper) racing an in-flight Answer must
	// never deadlock: Answer returns nil or ErrSessionClosed promptly.
	rng := rand.New(rand.NewSource(10))
	ds := AntiCorrelated(rng, 300, 3)
	k := 4
	band := Preprocess(ds.Points, k)
	for i := 0; i < 30; i++ {
		s := NewSession(NewRH(int64(i)), band, k)
		_, _, done := s.Next()
		if done {
			s.Close()
			continue
		}
		raced := make(chan error, 1)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			raced <- s.Answer(true)
		}()
		go func() {
			defer wg.Done()
			s.Close()
		}()
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatal("Close racing Answer deadlocked")
		}
		if err := <-raced; err != nil && !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("racing Answer returned unexpected error: %v", err)
		}
	}
}

func TestResumeSessionReplaysToSameResult(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := CarLike(rng, 400)
	k := 10
	band := Preprocess(ds.Points, k)
	hidden := RandomUtility(rng, 4)

	// Run a session partway, "crash", and resume from the answer log.
	s := NewSession(NewRH(21), band, k)
	answered := 0
	for answered < 4 {
		p, q, done := s.Next()
		if done {
			t.Skip("session too short to interrupt")
		}
		if err := s.Answer(hidden.Dot(p) >= hidden.Dot(q)); err != nil {
			t.Fatal(err)
		}
		answered++
	}
	log := s.AnswerLog()
	if len(log) != answered {
		t.Fatalf("AnswerLog has %d entries, want %d", len(log), answered)
	}
	s.Close() // the "crash": the original session is gone

	resumed, err := ResumeSession(NewRH(21), band, k, log)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.Questions() != answered {
		t.Fatalf("resumed session at %d questions, want %d", resumed.Questions(), answered)
	}
	for {
		p, q, done := resumed.Next()
		if done {
			break
		}
		if err := resumed.Answer(hidden.Dot(p) >= hidden.Dot(q)); err != nil {
			t.Fatal(err)
		}
	}
	_, idx, err := resumed.Result()
	if err != nil {
		t.Fatal(err)
	}
	direct := Solve(NewRH(21), band, k, NewUser(hidden))
	if idx != direct.Index || resumed.Questions() != direct.Questions {
		t.Fatalf("resumed (%d, %dq) != crash-free (%d, %dq)",
			idx, resumed.Questions(), direct.Index, direct.Questions)
	}
}

func TestResumeSessionDetectsDivergence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ds := AntiCorrelated(rng, 300, 3)
	k := 4
	band := Preprocess(ds.Points, k)
	hidden := RandomUtility(rng, 3)
	// A full transcript plus surplus answers cannot replay cleanly: the
	// algorithm finishes with answers left over.
	direct := Solve(NewRH(5), band, k, NewUser(hidden))
	log := make([]bool, direct.Questions+3)
	u := NewUser(hidden)
	s := NewSession(NewRH(5), band, k)
	for i := 0; ; i++ {
		p, q, done := s.Next()
		if done {
			break
		}
		ans := u.Prefer(p, q)
		log[i] = ans
		s.Answer(ans)
	}
	s.Close()
	if _, err := ResumeSession(NewRH(5), band, k, log); err == nil {
		t.Fatal("replay with surplus answers must report divergence")
	}
}

func TestFingerprintDistinguishesDatasets(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := Preprocess(CarLike(rng, 300).Points, 10)
	b := Preprocess(NBALike(rng, 300).Points, 10)
	if Fingerprint(a, 10) == Fingerprint(b, 10) {
		t.Fatal("different datasets share a fingerprint")
	}
	if Fingerprint(a, 10) == Fingerprint(a, 11) {
		t.Fatal("different k shares a fingerprint")
	}
	if Fingerprint(a, 10) != Fingerprint(a, 10) {
		t.Fatal("fingerprint not deterministic")
	}
}

func TestSessionWithHDPI(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := CarLike(rng, 400)
	k := 10
	band := Preprocess(ds.Points, k)
	hidden := RandomUtility(rng, 4)
	s := NewSession(NewHDPI(2), band, k)
	defer s.Close()
	for {
		p, q, done := s.Next()
		if done {
			break
		}
		s.Answer(hidden.Dot(p) >= hidden.Dot(q))
	}
	pt, _, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !IsTopK(band, hidden, k, pt) {
		t.Fatal("HD-PI session result not top-k")
	}
}

// TestSessionCloseRacingNextLeaksNoGoroutines is the leak regression for the
// worst-ordered shutdown: a caller parked in Next (waiting for the next
// question) while another goroutine Closes the session. Both the caller and
// the algorithm goroutine must unwind; 50 iterations make a per-iteration
// leak visible in the global goroutine count.
func TestSessionCloseRacingNextLeaksNoGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := AntiCorrelated(rng, 300, 3)
	k := 4
	band := Preprocess(ds.Points, k)

	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		s := NewSession(NewRH(int64(i)), band, k)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Park on the question channel; the racing Close must wake it.
			s.Next()
		}()
		s.Close()
		wg.Wait()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestSessionBudgetMaxQuestions drives a budgeted session into exhaustion
// and checks the anytime contract surfaces through the session API: the
// session finishes (done, Result works) and the certificate admits the
// answer is best-effort.
func TestSessionBudgetMaxQuestions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := AntiCorrelated(rng, 600, 4)
	k := 3
	band := Preprocess(ds.Points, k)
	hidden := RandomUtility(rng, 4)

	s := NewSession(NewRH(5), band, k, WithBudget(Budget{MaxQuestions: 2}))
	defer s.Close()
	if _, ok := s.Certificate(); ok {
		t.Fatal("certificate available before the session finished")
	}
	for {
		p, q, done := s.Next()
		if done {
			break
		}
		if err := s.Answer(hidden.Dot(p) >= hidden.Dot(q)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Err(); err != nil {
		t.Fatalf("budgeted session errored: %v", err)
	}
	if _, _, err := s.Result(); err != nil {
		t.Fatalf("no best-effort result: %v", err)
	}
	if got := s.Questions(); got > 2 {
		t.Fatalf("session asked %d questions past a budget of 2", got)
	}
	cert, ok := s.Certificate()
	if !ok {
		t.Fatal("budgeted session has no certificate")
	}
	if cert.Certified {
		t.Fatal("2-question session claims a certified result")
	}
	if cert.Reason != StopQuestions {
		t.Fatalf("certificate reason %q, want %q", cert.Reason, StopQuestions)
	}
	if cert.Candidates <= k {
		t.Fatalf("certificate claims %d candidates after 2 answers, want > %d", cert.Candidates, k)
	}
}

// TestSessionContextCancel checks cancellation is a clean anytime stop, not
// an error: a session created under an already-canceled context finishes
// immediately with a best-effort result and a canceled certificate.
func TestSessionContextCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds := AntiCorrelated(rng, 300, 3)
	k := 4
	band := Preprocess(ds.Points, k)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSession(NewRH(8), band, k, WithBudget(Budget{Ctx: ctx}))
	defer s.Close()
	if _, _, done := s.Next(); !done {
		t.Fatal("canceled session still asks questions")
	}
	if err := s.Err(); err != nil {
		t.Fatalf("canceled session errored: %v", err)
	}
	if _, _, err := s.Result(); err != nil {
		t.Fatalf("no best-effort result: %v", err)
	}
	cert, ok := s.Certificate()
	if !ok {
		t.Fatal("canceled session has no certificate")
	}
	if cert.Certified || cert.Reason != StopCanceled {
		t.Fatalf("certificate = %+v, want uncertified canceled", cert)
	}
}

// TestSessionUnbudgetedHasNoCertificate pins the compatibility contract: a
// plain NewSession is not budgeted, reproduces the historical behaviour, and
// reports no certificate — and neither does a budget whose only field is a
// context that can never be canceled.
func TestSessionUnbudgetedHasNoCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ds := AntiCorrelated(rng, 200, 3)
	k := 5
	band := Preprocess(ds.Points, k)
	hidden := RandomUtility(rng, 3)

	for name, opts := range map[string][]Option{
		"plain":              nil,
		"background-context": {WithBudget(Budget{Ctx: context.Background()})},
	} {
		s := NewSession(NewRH(4), band, k, opts...)
		for {
			p, q, done := s.Next()
			if done {
				break
			}
			s.Answer(hidden.Dot(p) >= hidden.Dot(q))
		}
		if _, _, err := s.Result(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := s.Certificate(); ok {
			t.Fatalf("%s: unbudgeted session produced a certificate", name)
		}
		s.Close()
	}
}

// TestSessionBudgetedPanicIsAbsorbed checks the budgeted panic semantics: a
// poisoned oracle panic inside a budgeted session becomes a best-effort
// result with a panic-recovered certificate, not an error state.
func TestSessionBudgetedPanicIsAbsorbed(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ds := AntiCorrelated(rng, 300, 3)
	k := 4
	band := Preprocess(ds.Points, k)
	hidden := RandomUtility(rng, 3)

	alg := &faultinject.Algorithm{Inner: NewRH(6), Plan: faultinject.Plan{PanicAt: 2}}
	s := NewSession(alg, band, k, WithBudget(Budget{MaxQuestions: 64}))
	defer s.Close()
	for {
		p, q, done := s.Next()
		if done {
			break
		}
		if err := s.Answer(hidden.Dot(p) >= hidden.Dot(q)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Err(); err != nil {
		t.Fatalf("budgeted session entered the error state: %v", err)
	}
	if _, _, err := s.Result(); err != nil {
		t.Fatalf("no best-effort result after the panic: %v", err)
	}
	cert, ok := s.Certificate()
	if !ok {
		t.Fatal("no certificate after the recovered panic")
	}
	if cert.Certified || cert.Reason != StopPanic {
		t.Fatalf("certificate = %+v, want uncertified panic-recovered", cert)
	}
}
