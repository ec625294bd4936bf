package ist

import (
	"errors"
	"fmt"
	"sync"
)

// Session drives an interactive algorithm one question at a time, inverting
// control: instead of handing the algorithm an Oracle and blocking until it
// finishes, the caller pulls the next question with Next, ships it to a real
// user (an HTTP round-trip, a chat message, a survey widget...), and pushes
// the answer back with Answer. This is how a web service embeds the library
// without holding a goroutine per user... almost: internally the algorithm
// still runs on its own goroutine, parked on an unbuffered channel between
// questions, which costs a few KiB and no CPU while waiting. That goroutine
// hands the caller one step at a time over a single channel: a question, or
// the end of the run with its result, certificate or error.
//
//	s := ist.NewSession(ist.NewHDPI(1), band, k)
//	for {
//	    p, q, done := s.Next()
//	    if done { break }
//	    s.Answer(askHuman(p, q))
//	}
//	fmt.Println(s.Result())
//
// Sessions must be finished (Next returning done, or Close) to release the
// underlying goroutine. NewSession and ResumeSession take the same options
// as Solve: WithBudget bounds the dialogue and makes Certificate available
// once it ends, and WithObserver traces it.
//
// Fault tolerance: a panic inside the algorithm goroutine does not crash the
// process and does not strand the caller. The panic is recovered and ends
// the run: Next reports done, and from then on Err returns the error and
// Answer/Result return it too (a budgeted session instead finishes with a
// best-effort result). Every answered question is also appended to an
// answer log (AnswerLog) — together with the algorithm's name and seed this
// is enough to rebuild the session deterministically via ResumeSession.
//
// Concurrency: one goroutine drives Next/Answer/Result at a time, but Close
// may be called concurrently from any goroutine (e.g. an expiry reaper); a
// Close racing an in-flight Answer makes Answer return ErrSessionClosed
// rather than deadlock.
type Session struct {
	steps    chan step
	answers  chan bool
	closeSig chan struct{}

	mu      sync.Mutex
	last    step // the last step received: the pending question, or the end
	pending bool
	points  []Point
	log     []bool
	closed  bool
}

// step is what the algorithm goroutine hands the caller: a question (p, q),
// or with end set the end of the run — the result index and certificate, or
// the error of a panic that ended it.
type step struct {
	p, q Point
	end  bool
	idx  int
	cert *Certificate
	err  error
}

// ErrNoPendingQuestion is returned by Answer when Next has not produced an
// unanswered question.
var ErrNoPendingQuestion = errors.New("ist: no pending question to answer")

// ErrSessionClosed is returned by Answer when the session has been closed,
// including a Close racing the Answer from another goroutine.
var ErrSessionClosed = errors.New("ist: session closed")

// sessionOracle adapts the channel plumbing to the Oracle interface.
type sessionOracle struct {
	s *Session
}

func (o sessionOracle) Prefer(p, q Point) bool {
	select {
	case o.s.steps <- step{p: p, q: q}:
	case <-o.s.closeSig:
		panic(sessionClosed{})
	}
	select {
	case ans := <-o.s.answers:
		return ans
	case <-o.s.closeSig:
		panic(sessionClosed{})
	}
}

func (o sessionOracle) Questions() int { return o.s.Questions() }

// sessionClosed aborts the algorithm goroutine when the caller closes the
// session early; recovered in play.
type sessionClosed struct{}

// NewSession starts an interactive session for the algorithm on the given
// (preprocessed) points. The algorithm begins computing immediately; the
// first Next call may therefore take as long as the algorithm's setup
// (partitioning, convex points, ...). Only a session started WithBudget
// reports a Certificate.
func NewSession(alg Algorithm, points []Point, k int, opts ...Option) *Session {
	cfg := configure(alg, opts)
	s := &Session{
		steps:    make(chan step),
		answers:  make(chan bool),
		points:   points,
		closeSig: make(chan struct{}),
	}
	go func() {
		end, closed := s.play(alg, points, k, cfg.budget)
		if closed {
			return
		}
		select {
		case s.steps <- end:
		case <-s.closeSig:
		}
	}()
	return s
}

// play runs the algorithm to the session's end step, isolating a panic into
// its error; the panic Close raises in a parked Prefer reports closed.
func (s *Session) play(alg Algorithm, points []Point, k int, b Budget) (end step, closed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, closed = r.(sessionClosed); !closed {
				end = step{end: true, err: fmt.Errorf("ist: session algorithm panicked: %v", r)}
			}
		}
	}()
	idx, cert := run(alg, points, k, sessionOracle{s: s}, b)
	return step{end: true, idx: idx, cert: cert}, false
}

// Next returns the next question (two points for the user to compare) or
// done=true once the algorithm has finished — or failed or was closed; check
// Err (and Result's error) to tell the cases apart. Calling Next again
// without answering returns the same pending question.
func (s *Session) Next() (p, q Point, done bool) {
	s.mu.Lock()
	if s.last.end || s.closed {
		s.mu.Unlock()
		return nil, nil, true
	}
	if s.pending {
		p, q = s.last.p, s.last.q
		s.mu.Unlock()
		return p, q, false
	}
	s.mu.Unlock()
	select {
	case st := <-s.steps:
		s.mu.Lock()
		s.last, s.pending = st, !st.end
		s.mu.Unlock()
		return st.p, st.q, st.end
	case <-s.closeSig:
		return nil, nil, true
	}
}

// Answer resolves the pending question: preferFirst is true when the user
// prefers the first point of the pair returned by Next. On a failed session
// it returns the algorithm's error; on a closed one, ErrSessionClosed.
func (s *Session) Answer(preferFirst bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	if err := s.last.err; err != nil {
		s.mu.Unlock()
		return err
	}
	if !s.pending {
		s.mu.Unlock()
		return ErrNoPendingQuestion
	}
	s.mu.Unlock()
	// The algorithm goroutine is parked in Prefer waiting for this answer,
	// so only Close can keep it from taking it.
	select {
	case s.answers <- preferFirst:
	case <-s.closeSig:
		return ErrSessionClosed
	}
	s.mu.Lock()
	s.pending = false
	s.log = append(s.log, preferFirst)
	s.mu.Unlock()
	return nil
}

// Questions returns how many questions have been answered so far.
func (s *Session) Questions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.log)
}

// Certificate returns the anytime certificate of a budgeted session once it
// has finished, and ok=false before then or for unbudgeted sessions. A
// Certified=false certificate means the point from Result is best-effort:
// the budget ran out (see Reason) before the algorithm could prove it top-k.
func (s *Session) Certificate() (Certificate, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.last.end || s.last.cert == nil {
		return Certificate{}, false
	}
	return *s.last.cert, true
}

// Err reports the terminal error of a failed session (an algorithm panic),
// or nil for a healthy one. The error is known once Next has reported done.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last.err
}

// AnswerLog returns a copy of every answer given so far, in order. Replaying
// it through an identically constructed algorithm (same name, same seed,
// same points) reproduces the session exactly; see ResumeSession.
func (s *Session) AnswerLog() []bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]bool(nil), s.log...)
}

// Result returns the found point after Next has reported done. It errors if
// the session is still in progress or has failed.
func (s *Session) Result() (Point, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.last.err != nil {
		return nil, 0, s.last.err
	}
	if !s.last.end {
		return nil, 0, fmt.Errorf("ist: session still in progress after %d questions", len(s.log))
	}
	return s.points[s.last.idx].Clone(), s.last.idx, nil
}

// Close aborts an in-progress session and releases its goroutine. It is a
// no-op on an already-closed session, keeps a finished session's Result, and
// is safe to call concurrently with Next/Answer.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.closeSig)
	}
}
