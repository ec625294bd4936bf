package server

import (
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"ist"
	"ist/internal/obs"
)

// transcript is the user-visible record of one interactive session: every
// question surfaced, the final result, and the question count.
type sessionTranscript struct {
	Questions [][2][]float64
	Result    []float64
	Count     int
}

// driveRecording answers a session according to hidden, capturing the full
// transcript.
func driveRecording(t *testing.T, srv *Server, st StateResponse, hidden ist.Point) sessionTranscript {
	t.Helper()
	var tr sessionTranscript
	for steps := 0; !st.Done; steps++ {
		if steps > 5000 {
			t.Fatal("session never finished")
		}
		if st.Question == nil {
			t.Fatal("undone session without a question")
		}
		tr.Questions = append(tr.Questions, [2][]float64{st.Question.Option1, st.Question.Option2})
		p := ist.Point(st.Question.Option1)
		q := ist.Point(st.Question.Option2)
		prefer := 2
		if hidden.Dot(p) >= hidden.Dot(q) {
			prefer = 1
		}
		rec, next := do(t, srv, http.MethodPost, "/sessions/"+st.ID+"/answer", map[string]int{"prefer": prefer, "seq": st.Seq})
		if rec.Code != http.StatusOK {
			t.Fatalf("answer: %d %s", rec.Code, rec.Body.String())
		}
		st = next
	}
	tr.Result = st.Result
	tr.Count = st.Questions
	return tr
}

func createSession(t *testing.T, srv *Server, alg string) StateResponse {
	t.Helper()
	rec, st := do(t, srv, http.MethodPost, "/sessions", map[string]string{"algorithm": alg})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	return st
}

// TestPrepCacheTranscriptsIdentical runs the same seeded sessions against a
// cache-free server and a server sharing a preprocessing cache, and
// requires bit-identical transcripts in every combination: cache-free vs
// cold-populate (session 1) and cache-free vs cache-hit (session 2). This is
// the server-level determinism contract of DESIGN.md §14 — caching is
// invisible in every user-visible byte.
func TestPrepCacheTranscriptsIdentical(t *testing.T) {
	band, k, hidden := testBand(t)

	plain, err := New(band, k, Options{Seed: 7, TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plain.Close)

	cached, err := New(band, k, Options{
		Seed:      7,
		TTL:       time.Minute,
		PrepCache: ist.NewPreprocessCache(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cached.Close)

	for _, alg := range []string{"hdpi-accurate", "rh"} {
		for round := 1; round <= 2; round++ {
			// Sessions are seeded Seed+i, so the i-th session on each server
			// shares a seed; their transcripts must match exactly.
			want := driveRecording(t, plain, createSession(t, plain, alg), hidden)
			got := driveRecording(t, cached, createSession(t, cached, alg), hidden)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s round %d: cached transcript diverged from cache-free (%d vs %d questions)",
					alg, round, got.Count, want.Count)
			}
		}
	}

	st := cached.opt.PrepCache.Stats()
	if st.Misses == 0 {
		t.Fatal("cache never computed anything")
	}
	if st.Hits == 0 {
		t.Fatal("second sessions never hit the cache")
	}
	if st.Bytes <= 0 {
		t.Fatalf("cache reports %d resident bytes", st.Bytes)
	}
}

// TestPrepCacheMetrics asserts the /metrics exposition carries the cache
// series and that hits increment once a second identical session is created.
func TestPrepCacheMetrics(t *testing.T) {
	band, k, hidden := testBand(t)
	srv, err := New(band, k, Options{
		Seed:      1,
		TTL:       time.Minute,
		PrepCache: ist.NewPreprocessCache(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	body, _ := scrape(t, srv)
	for _, name := range []string{obs.MetricPrepCacheHits, obs.MetricPrepCacheMisses, obs.MetricPrepCacheBytes} {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("metric %s missing from exposition:\n%s", name, body)
		}
	}
	if !strings.Contains(body, obs.MetricPrepCacheHits+" 0\n") {
		t.Fatalf("fresh server should expose zero cache hits:\n%s", body)
	}

	if _, ok := drive(t, srv, createSession(t, srv, "hdpi-accurate"), hidden); !ok {
		t.Fatal("first session did not finish")
	}
	body, _ = scrape(t, srv)
	if strings.Contains(body, obs.MetricPrepCacheMisses+" 0\n") {
		t.Fatalf("first session should have missed the cache:\n%s", body)
	}

	if _, ok := drive(t, srv, createSession(t, srv, "hdpi-accurate"), hidden); !ok {
		t.Fatal("second session did not finish")
	}
	body, _ = scrape(t, srv)
	if strings.Contains(body, obs.MetricPrepCacheHits+" 0\n") {
		t.Fatalf("second session should have hit the cache:\n%s", body)
	}
}
