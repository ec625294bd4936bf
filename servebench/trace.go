package main

import (
	"bytes"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ist"
	"ist/internal/obs"
	"ist/internal/server"
)

// tracer times the layers under the handler from outside the program. It is
// installed only in a traced run, through three public hooks: an
// http.Handler middleware around the server, a SessionStore decorator, and
// an algorithm wrapper passed as server.Options.WrapAlgorithm.
//
// A session's requests are strictly sequential, so per-session marks need
// no ordering beyond their atomics: the handler goroutine writes a mark and
// the session's algorithm goroutine reads it after the answer is handed
// over.
type tracer struct {
	start time.Time

	mu    sync.Mutex
	marks map[string]*sessionMarks

	serverCreate, serverAnswer stat
	// Store time per create and finish call, and per answer request (the
	// answer append plus, on the request that ends the session, the finish
	// append).
	storeCreate, storeFinish, storeInAnswer stat
	handoff                                 stat
	question, firstQuestion                 stat
}

// stat accumulates durations in nanoseconds.
type stat struct{ sum, n atomic.Int64 }

func (s *stat) add(ns int64) {
	s.sum.Add(ns)
	s.n.Add(1)
}

// mean returns the mean duration in the given unit (0 with no samples).
func (s *stat) mean(unit time.Duration) float64 {
	n := s.n.Load()
	if n == 0 {
		return 0
	}
	return float64(s.sum.Load()) / float64(n) / float64(unit)
}

type sessionMarks struct {
	// handedOver is when the current answer left the layers above the
	// session: the return of the store's answer append, or handler entry
	// when there is no store.
	handedOver atomic.Int64
	// storeNs is the store time accrued inside the current request.
	storeNs atomic.Int64
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), marks: map[string]*sessionMarks{}}
}

// reset drops what set-up recorded (the warm-up session), so the stats
// cover the timed phase only.
func (t *tracer) reset() {
	for _, s := range []*stat{
		&t.serverCreate, &t.serverAnswer,
		&t.storeCreate, &t.storeFinish, &t.storeInAnswer,
		&t.handoff, &t.question, &t.firstQuestion,
	} {
		s.sum.Store(0)
		s.n.Store(0)
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.start)) }

func (t *tracer) session(id string) *sessionMarks {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.marks[id]
	if !ok {
		m = &sessionMarks{}
		t.marks[id] = m
	}
	return m
}

func (t *tracer) forget(id string) {
	t.mu.Lock()
	delete(t.marks, id)
	t.mu.Unlock()
}

// middleware times ServeHTTP for creates and answers.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
		start := t.now()
		switch {
		case r.Method == http.MethodPost && len(parts) == 1 && parts[0] == "sessions":
			next.ServeHTTP(w, r)
			t.serverCreate.add(t.now() - start)
		case r.Method == http.MethodPost && len(parts) == 3 && parts[0] == "sessions" && parts[2] == "answer":
			m := t.session(parts[1])
			m.handedOver.Store(start)
			m.storeNs.Store(0)
			next.ServeHTTP(w, r)
			t.serverAnswer.add(t.now() - start)
			t.storeInAnswer.add(m.storeNs.Load())
		case r.Method == http.MethodDelete && len(parts) == 2 && parts[0] == "sessions":
			next.ServeHTTP(w, r)
			t.forget(parts[1])
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// timedStore decorates the server's SessionStore. It forwards AnswerSpan
// (so WAL spans are still recorded) and WALSeq (so /healthz still reports
// the segment), and adds nothing else.
type timedStore struct {
	inner server.SessionStore
	t     *tracer
}

// timed runs one store call, charging its time to the session's current
// request and, when into is set, to a per-call stat.
func (s *timedStore) timed(id string, into *stat, op func() error) error {
	start := s.t.now()
	err := op()
	d := s.t.now() - start
	if into != nil {
		into.add(d)
	}
	s.t.session(id).storeNs.Add(d)
	return err
}

func (s *timedStore) Create(rec server.SessionRecord) error {
	return s.timed(rec.ID, &s.t.storeCreate, func() error { return s.inner.Create(rec) })
}

func (s *timedStore) Answer(id string, preferFirst bool) error {
	return s.AnswerSpan(id, preferFirst, nil)
}

func (s *timedStore) AnswerSpan(id string, preferFirst bool, parent *obs.Span) error {
	err := s.timed(id, nil, func() error {
		if ss, ok := s.inner.(server.SpanSessionStore); ok {
			return ss.AnswerSpan(id, preferFirst, parent)
		}
		return s.inner.Answer(id, preferFirst)
	})
	s.t.session(id).handedOver.Store(s.t.now())
	return err
}

func (s *timedStore) Finish(id string) error {
	return s.timed(id, &s.t.storeFinish, func() error { return s.inner.Finish(id) })
}

func (s *timedStore) Load() ([]server.SessionRecord, int64, error) { return s.inner.Load() }

func (s *timedStore) Close() error { return s.inner.Close() }

func (s *timedStore) WALSeq() uint64 {
	if ws, ok := s.inner.(interface{ WALSeq() uint64 }); ok {
		return ws.WALSeq()
	}
	return 0
}

// wrapAlgorithm is the server.Options.WrapAlgorithm hook: it times the
// algorithm goroutine between questions.
func (t *tracer) wrapAlgorithm(id string, alg ist.Algorithm) ist.Algorithm {
	return &timedAlgorithm{inner: alg, t: t, m: t.session(id)}
}

type timedAlgorithm struct {
	inner ist.Algorithm
	t     *tracer
	m     *sessionMarks
}

func (a *timedAlgorithm) Name() string { return a.inner.Name() }

// SetObserver forwards the session's observer, so the server's metrics
// bridge and span observer still attach to the wrapped algorithm.
func (a *timedAlgorithm) SetObserver(o ist.Observer) { ist.Observe(a.inner, o) }

func (a *timedAlgorithm) Run(points []ist.Point, k int, o ist.Oracle) int {
	to := &timedOracle{inner: o, a: a, last: a.t.now(), first: true}
	idx := a.inner.Run(points, k, to)
	to.computed(a.t.now())
	return idx
}

// timedOracle sits between the algorithm and the session's channel oracle.
// Time from one Prefer return to the next Prefer call (or Run's return) is
// compute for the answer just received; Run start to the first Prefer is
// compute for the create.
type timedOracle struct {
	inner ist.Oracle
	a     *timedAlgorithm
	last  int64
	first bool
}

func (o *timedOracle) computed(now int64) {
	if o.first {
		o.a.t.firstQuestion.add(now - o.last)
		o.first = false
		return
	}
	o.a.t.question.add(now - o.last)
}

func (o *timedOracle) Prefer(p, q ist.Point) bool {
	o.computed(o.a.t.now())
	ans := o.inner.Prefer(p, q)
	o.last = o.a.t.now()
	o.a.t.handoff.add(o.last - o.a.m.handedOver.Load())
	return ans
}

func (o *timedOracle) Questions() int { return o.inner.Questions() }

// counters reads a registry the way a scraper would, summing every series
// of a family across its labels (histograms keep their _sum and _count
// suffixes).
func counters(reg *obs.Registry) map[string]float64 {
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}

// delta returns after-before for every series in after.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
