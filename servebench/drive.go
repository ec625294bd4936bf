package main

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ist"
	"ist/internal/obs"
)

// users is the closed loop's client count. Each user runs one dialogue at a
// time with no think time: create, answer until done, close. One user keeps
// a request's chain (client, handler, algorithm goroutine) on about one CPU
// of the 2-CPU host the benchmark was sized on. With one user per CPU the
// two loops competed with each other and with the host's other tenants,
// and repeated runs spread several times wider (NOTES.md).
const users = 1

// sessionResult is what one dialogue left behind, kept small so the
// benchmark's own memory barely shows in heap_live_mb.
type sessionResult struct {
	id int64 // N of the server-assigned id "s<N>"; 0 if create failed
	// closed is when the dialogue ended, counted from the phase's start.
	closed    time.Duration
	questions int32
	resultID  int32
	// ok is false when a request failed after the client's retries, the
	// session ended without a result, or the result the server sent is not
	// the skyband point it names.
	ok bool
}

// phase is one timed stretch of closed-loop traffic.
type phase struct {
	elapsed  time.Duration
	sessions []sessionResult
	creates  []sample
	answers  []sample
}

// sample is one request's client-observed latency, stamped with when it
// was sent, counted from the phase's start.
type sample struct {
	at time.Duration
	ms float64
}

func (ph *phase) failed() int {
	n := 0
	for _, s := range ph.sessions {
		if !s.ok {
			n++
		}
	}
	return n
}

// limit decides, before each create, whether a user starts another dialogue.
type limit func() bool

// timeLimit admits creates until the deadline; dialogues already started
// run to completion, so every created session finishes.
func timeLimit(d time.Duration) limit {
	deadline := time.Now().Add(d)
	return func() bool { return time.Now().Before(deadline) }
}

// countLimit admits exactly n creates across all users. The server numbers
// sessions in arrival order, so n creates on a fresh server are always the
// ids 1..n: a count-limited run replays a time-limited run's sessions.
func countLimit(n int) limit {
	var issued atomic.Int64
	return func() bool { return issued.Add(1) <= int64(n) }
}

// utility is the hidden utility of the user who holds session N. It depends
// only on the server seed and N, never on which user or goroutine got the
// id, so a session's (algorithm seed, utility) pair repeats in every run.
func utility(serverSeed, n int64, d int) ist.Point {
	const salt = 0x75736572 // "user": keeps the stream apart from the algorithm's Seed+N
	return ist.RandomUtility(rand.New(rand.NewSource((serverSeed+n)^salt)), d)
}

// sessionNum parses the N of "s<N>".
func sessionNum(id string) int64 {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "s"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// drive runs the closed loop with the given number of users until lim stops
// admitting creates, and returns once every started dialogue has closed.
// clientReg, when set, collects the clients' retry counters.
func (inst *instance) drive(ctx context.Context, nUsers int, lim limit, clientReg *obs.Registry) phase {
	parts := make([]phase, nUsers)
	var wg sync.WaitGroup
	start := time.Now()
	for u := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[u] = inst.user(ctx, u, start, lim, clientReg)
		}()
	}
	wg.Wait()
	all := phase{elapsed: time.Since(start)}
	for _, p := range parts {
		all.sessions = append(all.sessions, p.sessions...)
		all.creates = append(all.creates, p.creates...)
		all.answers = append(all.answers, p.answers...)
	}
	return all
}

// user is one simulated human: it answers every question truthfully from
// the hidden utility of the session it holds.
func (inst *instance) user(ctx context.Context, u int, start time.Time, lim limit, clientReg *obs.Registry) phase {
	var ph phase
	cl, err := inst.newClient(u, clientReg)
	if err != nil {
		ph.sessions = append(ph.sessions, sessionResult{})
		return ph
	}
	d := len(inst.band[0])
	for lim() {
		t0 := time.Now()
		sess, err := cl.Create(ctx, inst.w.alg)
		if err != nil {
			ph.sessions = append(ph.sessions, sessionResult{})
			continue
		}
		ph.creates = append(ph.creates, sample{t0.Sub(start), msSince(t0)})
		res := sessionResult{id: sessionNum(sess.ID()), ok: true}
		user := ist.NewUser(utility(inst.seed, res.id, d))
		st := sess.State()
		for !st.Done {
			if st.Question == nil {
				res.ok = false
				break
			}
			prefer := 2
			if user.Prefer(st.Question.Option1, st.Question.Option2) {
				prefer = 1
			}
			t := time.Now()
			st, err = sess.Answer(ctx, prefer)
			if err != nil {
				res.ok = false
				break
			}
			ph.answers = append(ph.answers, sample{t.Sub(start), msSince(t)})
		}
		if err := sess.Close(ctx); err != nil {
			res.ok = false
		}
		res.closed = time.Since(start)
		res.questions = int32(st.Questions)
		res.resultID = int32(st.ResultID)
		if res.ok && !inst.isBandPoint(st.ResultID, st.Result) {
			res.ok = false
		}
		ph.sessions = append(ph.sessions, res)
	}
	return ph
}

// isBandPoint reports whether p is the served skyband's point idx.
func (inst *instance) isBandPoint(idx int, p []float64) bool {
	if idx < 0 || idx >= len(inst.band) || len(p) != len(inst.band[idx]) {
		return false
	}
	for i, v := range inst.band[idx] {
		//lint:ignore floatcmp the server echoes the stored point; any difference is a wrong answer
		if p[i] != v {
			return false
		}
	}
	return true
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
