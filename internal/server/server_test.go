package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ist"
	"ist/internal/clock"
)

func testBand(t *testing.T) ([]ist.Point, int, ist.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	ds := ist.CarLike(rng, 300)
	k := 10
	band := ist.Preprocess(ds.Points, k)
	hidden := ist.RandomUtility(rng, 4)
	return band, k, hidden
}

func newTestServer(t *testing.T) (*Server, []ist.Point, ist.Point) {
	t.Helper()
	band, k, hidden := testBand(t)
	srv, err := New(band, k, Options{Seed: 1, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, band, hidden
}

func do(t *testing.T, srv *Server, method, path string, body interface{}) (*httptest.ResponseRecorder, StateResponse) {
	if t != nil {
		t.Helper()
	}
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var st StateResponse
	if rec.Body.Len() > 0 {
		// Conflict responses (409) carry the authoritative state too; plain
		// error texts simply fail to parse and leave the zero value.
		_ = json.Unmarshal(rec.Body.Bytes(), &st)
	}
	return rec, st
}

// doRaw sends a raw body without JSON-encoding it (for malformed payloads).
func doRaw(t *testing.T, srv *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// drive answers a session's questions according to hidden until done,
// returning the final state. Pass a nil *testing.T from extra goroutines.
func drive(t *testing.T, srv *Server, st StateResponse, hidden ist.Point) (StateResponse, bool) {
	if t != nil {
		t.Helper()
	}
	for steps := 0; !st.Done; steps++ {
		if steps > 5000 || st.Question == nil {
			return st, false
		}
		p := ist.Point(st.Question.Option1)
		q := ist.Point(st.Question.Option2)
		prefer := 2
		if hidden.Dot(p) >= hidden.Dot(q) {
			prefer = 1
		}
		rec, next := do(t, srv, http.MethodPost, "/sessions/"+st.ID+"/answer", map[string]int{"prefer": prefer, "seq": st.Seq})
		if rec.Code != http.StatusOK {
			return st, false
		}
		st = next
	}
	return st, true
}

func TestFullSessionOverHTTP(t *testing.T) {
	srv, band, hidden := newTestServer(t)
	rec, st := do(t, srv, http.MethodPost, "/sessions", map[string]string{"algorithm": "rh"})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	if st.ID == "" {
		t.Fatal("missing session id")
	}
	steps := 0
	for !st.Done {
		if st.Question == nil {
			t.Fatal("undone session without a question")
		}
		p := ist.Point(st.Question.Option1)
		q := ist.Point(st.Question.Option2)
		prefer := 2
		if hidden.Dot(p) >= hidden.Dot(q) {
			prefer = 1
		}
		rec, st = do(t, srv, http.MethodPost, "/sessions/"+st.ID+"/answer", map[string]int{"prefer": prefer, "seq": st.Seq})
		if rec.Code != http.StatusOK {
			t.Fatalf("answer: %d %s", rec.Code, rec.Body.String())
		}
		steps++
		if steps > 5000 {
			t.Fatal("session never finished")
		}
	}
	if st.Result == nil {
		t.Fatal("done without result")
	}
	if !ist.IsTopK(band, hidden, 10, ist.Point(st.Result)) {
		t.Fatal("HTTP session returned non-top-k point")
	}
	if st.Questions != steps {
		t.Fatalf("questions %d != answered %d", st.Questions, steps)
	}
}

func TestCreateUnknownAlgorithm(t *testing.T) {
	srv, _, _ := newTestServer(t)
	rec, _ := do(t, srv, http.MethodPost, "/sessions", map[string]string{"algorithm": "nope"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("code = %d", rec.Code)
	}
}

func TestCreateMalformedJSON(t *testing.T) {
	srv, _, _ := newTestServer(t)
	// A malformed body must be rejected, not silently fall back to defaults.
	rec := doRaw(t, srv, http.MethodPost, "/sessions", `{"algorithm":`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: code %d, want 400", rec.Code)
	}
	if srv.Sessions() != 0 {
		t.Fatalf("malformed create leaked a session: %d live", srv.Sessions())
	}
	// An empty body still means defaults.
	rec = doRaw(t, srv, http.MethodPost, "/sessions", "")
	if rec.Code != http.StatusCreated {
		t.Fatalf("empty body: code %d, want 201", rec.Code)
	}
}

func TestAnswerValidation(t *testing.T) {
	srv, _, _ := newTestServer(t)
	_, st := do(t, srv, http.MethodPost, "/sessions", nil)
	rec, _ := do(t, srv, http.MethodPost, "/sessions/"+st.ID+"/answer", map[string]int{"prefer": 3})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("prefer=3: code %d", rec.Code)
	}
	rec, _ = do(t, srv, http.MethodPost, "/sessions/nope/answer", map[string]int{"prefer": 1})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id: code %d", rec.Code)
	}
}

func TestGetAndDelete(t *testing.T) {
	srv, _, _ := newTestServer(t)
	_, st := do(t, srv, http.MethodPost, "/sessions", nil)
	rec, got := do(t, srv, http.MethodGet, "/sessions/"+st.ID, nil)
	if rec.Code != http.StatusOK || got.ID != st.ID {
		t.Fatalf("get: %d %+v", rec.Code, got)
	}
	rec, _ = do(t, srv, http.MethodDelete, "/sessions/"+st.ID, nil)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", rec.Code)
	}
	if srv.Sessions() != 0 {
		t.Fatalf("sessions remaining: %d", srv.Sessions())
	}
	rec, _ = do(t, srv, http.MethodGet, "/sessions/"+st.ID, nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("get after delete: %d", rec.Code)
	}
}

func TestSessionExpiry(t *testing.T) {
	srv, _, _ := newTestServer(t)
	srv.opt.TTL = time.Second
	fake := time.Now()
	srv.now = func() time.Time { return fake }
	_, _ = do(t, srv, http.MethodPost, "/sessions", nil)
	if srv.Sessions() != 1 {
		t.Fatal("session not created")
	}
	fake = fake.Add(2 * time.Second)
	srv.expire() // what the background reaper runs on its ticker
	if srv.Sessions() != 0 {
		t.Fatalf("expired session still alive: %d", srv.Sessions())
	}
}

func TestBackgroundReaper(t *testing.T) {
	band, k, _ := testBand(t)
	srv, err := New(band, k, Options{Seed: 1, TTL: 50 * time.Millisecond, ReapInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, _ = do(t, srv, http.MethodPost, "/sessions", nil)
	if srv.Sessions() != 1 {
		t.Fatal("session not created")
	}
	// No further requests: only the background reaper can collect it.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Sessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reaper never collected the idle session: %d live", srv.Sessions())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMaxSessions(t *testing.T) {
	band, k, hidden := testBand(t)
	srv, err := New(band, k, Options{Seed: 1, TTL: time.Minute, MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, st1 := do(t, srv, http.MethodPost, "/sessions", nil)
	_, _ = do(t, srv, http.MethodPost, "/sessions", nil)
	rec, _ := do(t, srv, http.MethodPost, "/sessions", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("create beyond cap: code %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	// Freeing a slot makes creation work again.
	do(t, srv, http.MethodDelete, "/sessions/"+st1.ID, nil)
	rec, st3 := do(t, srv, http.MethodPost, "/sessions", nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create after delete: code %d, want 201", rec.Code)
	}
	// A finished session gives its slot up to the next create.
	if _, ok := drive(t, srv, st3, hidden); !ok {
		t.Fatal("session did not finish")
	}
	rec, _ = do(t, srv, http.MethodPost, "/sessions", nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create at the cap with a finished session: code %d, want 201", rec.Code)
	}
	if rec, _ := do(t, srv, http.MethodGet, "/sessions/"+st3.ID, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("evicted finished session: code %d, want 404", rec.Code)
	}
	// Every slot now holds an unfinished session.
	rec, _ = do(t, srv, http.MethodPost, "/sessions", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("create with no finished session to evict: code %d, want 429", rec.Code)
	}
}

func TestHealthz(t *testing.T) {
	srv, _, _ := newTestServer(t)
	_, _ = do(t, srv, http.MethodPost, "/sessions", nil)
	rec := doRaw(t, srv, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: code %d", rec.Code)
	}
	var h HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Sessions != 1 || h.GoVersion == "" || h.Version == "" {
		t.Fatalf("healthz payload: %+v", h)
	}
	if h.UptimeSeconds < 0 {
		t.Fatalf("negative uptime: %v", h.UptimeSeconds)
	}
}

func TestNotFoundRoutes(t *testing.T) {
	srv, _, _ := newTestServer(t)
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/"},
		{http.MethodPut, "/sessions"},
		{http.MethodPost, "/sessions/x/y/z"},
		{http.MethodPost, "/healthz"},
	} {
		rec, _ := do(t, srv, tc.method, tc.path, nil)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("%s %s: code %d", tc.method, tc.path, rec.Code)
		}
	}
}

func TestConcurrentSessions(t *testing.T) {
	srv, band, _ := newTestServer(t)
	const users = 8
	done := make(chan bool, users)
	for u := 0; u < users; u++ {
		go func(u int) {
			rng := rand.New(rand.NewSource(int64(100 + u)))
			hidden := ist.RandomUtility(rng, 4)
			// Pass a nil *testing.T: its methods are not safe for use from
			// extra goroutines.
			_, st := do(nil, srv, http.MethodPost, "/sessions", map[string]string{"algorithm": "rh"})
			st, ok := drive(nil, srv, st, hidden)
			done <- ok && ist.IsTopK(band, hidden, 10, ist.Point(st.Result))
		}(u)
	}
	for u := 0; u < users; u++ {
		if !<-done {
			t.Fatal("a concurrent session failed")
		}
	}
}

// TestSessionDeadlineAnswersBestEffort drives a session past its per-session
// deadline on a fake clock: the next exchange must complete with HTTP 200 —
// an anytime answer is a success, not an error — and carry a certificate
// admitting "certified": false with the deadline stop reason.
func TestSessionDeadlineAnswersBestEffort(t *testing.T) {
	band, k, _ := testBand(t)
	fake := clock.NewFake(time.Unix(5000, 0))
	srv, err := New(band, k, Options{Seed: 1, TTL: time.Minute, SessionDeadline: time.Second, Clock: fake})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec, st := do(t, srv, http.MethodPost, "/sessions", nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d", rec.Code)
	}
	if st.Done {
		t.Fatal("session finished before its first question")
	}

	fake.Advance(2 * time.Second) // past the deadline
	rec, st = do(t, srv, http.MethodPost, "/sessions/"+st.ID+"/answer", map[string]int{"prefer": 1, "seq": st.Seq})
	if rec.Code != http.StatusOK {
		t.Fatalf("answer past the deadline: %d, want 200", rec.Code)
	}
	if !st.Done {
		t.Fatal("deadline-expired session still asking questions")
	}
	if st.Result == nil {
		t.Fatal("no best-effort result")
	}
	if st.Certificate == nil {
		t.Fatal("no certificate on the deadline-stopped session")
	}
	if st.Certificate.Certified {
		t.Fatal("deadline-stopped session claims a certified result")
	}
	if st.Certificate.Reason != ist.StopDeadline {
		t.Fatalf("certificate reason %q, want %q", st.Certificate.Reason, ist.StopDeadline)
	}
	// The wire shape: "certified" must be present and false.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	var certRaw map[string]json.RawMessage
	if err := json.Unmarshal(raw["certificate"], &certRaw); err != nil {
		t.Fatal(err)
	}
	if string(certRaw["certified"]) != "false" {
		t.Fatalf(`certificate JSON "certified" = %s, want false`, certRaw["certified"])
	}
}

// TestSessionQuestionBudgetOverHTTP is the MaxQuestions analogue: two
// answers exhaust the budget, the session finishes 200 with an uncertified
// question-budget certificate.
func TestSessionQuestionBudgetOverHTTP(t *testing.T) {
	band, k, _ := testBand(t)
	srv, err := New(band, k, Options{Seed: 1, TTL: time.Minute, MaxQuestions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec, st := do(t, srv, http.MethodPost, "/sessions", nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d", rec.Code)
	}
	for i := 0; i < 2 && !st.Done; i++ {
		rec, st = do(t, srv, http.MethodPost, "/sessions/"+st.ID+"/answer", map[string]int{"prefer": 1, "seq": st.Seq})
		if rec.Code != http.StatusOK {
			t.Fatalf("answer %d: %d", i+1, rec.Code)
		}
	}
	if !st.Done {
		t.Fatal("session still open past a 2-question budget")
	}
	if st.Certificate == nil || st.Certificate.Certified {
		t.Fatalf("certificate = %+v, want uncertified", st.Certificate)
	}
	if st.Certificate.Reason != ist.StopQuestions {
		t.Fatalf("certificate reason %q, want %q", st.Certificate.Reason, ist.StopQuestions)
	}
	// Unbudgeted servers must not suddenly report certificates.
	srv2, _, _ := newTestServer(t)
	_, st2 := do(t, srv2, http.MethodPost, "/sessions", nil)
	for !st2.Done {
		_, st2 = do(t, srv2, http.MethodPost, "/sessions/"+st2.ID+"/answer", map[string]int{"prefer": 1, "seq": st2.Seq})
	}
	if st2.Certificate != nil {
		t.Fatalf("unbudgeted session reported a certificate: %+v", st2.Certificate)
	}
}
