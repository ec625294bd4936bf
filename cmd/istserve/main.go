// Command istserve exposes interactive IST sessions over HTTP, the way a
// product would embed the library: the server holds the algorithm state,
// the client (a web page, an app) relays questions to a human.
//
//	istserve -addr :8080 -dataset car -n 1000 -k 20 -store-dir sessions.wal
//
// API (JSON):
//
//	POST /sessions                {"algorithm":"hdpi"}        -> {"id":..., "seq":0, "question":{...}}
//	POST /sessions/{id}/answer    {"prefer":1,"seq":0}        -> next question or {"result":{...}}
//	GET  /sessions/{id}                                       -> current state
//	DELETE /sessions/{id}                                     -> abort
//	GET  /healthz                                             -> liveness, session counts, build info
//	GET  /readyz                                              -> readiness (503 while starting/draining)
//	GET  /metrics                                             -> Prometheus text exposition (OpenMetrics + exemplars when negotiated)
//	GET  /debug/pprof/                                        -> runtime profiles
//	GET  /debug/ist/traces                                    -> recorded span trees (?trace=<id>&format=html for a waterfall)
//
// A question shows the two tuples' attribute values; answer with prefer 1
// or 2, quoting the question's "seq" — a retried POST with the same seq is
// absorbed idempotently, so lossy networks and eager proxies cannot apply
// an answer twice (DESIGN.md §12). Sessions idle longer than -session-ttl
// are collected by a background reaper, creation is capped at
// -max-sessions, concurrent create/answer work is bounded by -max-inflight
// (excess requests queue for -admission-timeout, then shed with 503), and
// with -store-dir every in-flight session is persisted to a checksummed
// write-ahead log (segment-rotated, snapshot-compacted, fsynced per
// -fsync) and rehydrated (by deterministic transcript replay) when the
// server restarts — a kill -9 or power cut mid-session costs the user no
// re-asked questions; without it sessions live in memory only. SIGINT or
// SIGTERM flips /readyz to 503, drains connections, and shuts down
// gracefully.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"ist"
	"ist/internal/obs"
	"ist/internal/server"
	"ist/internal/wal"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		name        = flag.String("dataset", "car", "anti|corr|indep|island|weather|car|nba")
		n           = flag.Int("n", 1000, "number of candidate tuples")
		d           = flag.Int("d", 4, "dimensionality (synthetic families only)")
		k           = flag.Int("k", 20, "return one of the user's top-k")
		seed        = flag.Int64("seed", 1, "random seed")
		ttl         = flag.Duration("session-ttl", 15*time.Minute, "idle session expiry")
		reap        = flag.Duration("reap-interval", time.Minute, "how often the reaper scans for idle sessions")
		maxSessions = flag.Int("max-sessions", 1024, "maximum live sessions; creation beyond it returns 429 (0 = unlimited)")
		storeDir    = flag.String("store-dir", "", "checksummed write-ahead-log session store directory for crash recovery (empty = memory only)")
		fsync       = flag.String("fsync", "always", "store fsync policy: always|interval|never")
		fsyncEvery  = flag.Duration("fsync-interval", 100*time.Millisecond, "fsync batching interval for -fsync interval")
		snapEvery   = flag.Int("snapshot-every", 256, "fold the session log into a snapshot (and compact old segments) every N events (<0 disables)")
		maxQ        = flag.Int("max-questions", 0, "question budget per session; past it the session answers best-effort with an uncertified certificate (0 = unlimited)")
		deadline    = flag.Duration("session-deadline", 0, "wall-clock budget per session from creation; past it the session answers best-effort (0 = none)")
		traceDir    = flag.String("trace-dir", "", "write one JSONL trace file per session into this directory (empty = no traces)")
		tracing     = flag.Bool("tracing", true, "record spans for every session (in-memory, served at /debug/ist/traces); clients propagate their trace ids via the traceparent header")
		traceBytes  = flag.Int64("trace-max-bytes", server.DefaultTraceMaxBytes, "size cap per session JSONL trace file; past it the file ends with a _truncated marker (<0 = unlimited)")
		maxInflight = flag.Int("max-inflight", 256, "maximum concurrent create/answer requests; excess requests queue up to -admission-timeout and are then shed with 503 (0 = unbounded)")
		admTimeout  = flag.Duration("admission-timeout", 250*time.Millisecond, "how long an over-limit request may queue for admission before being shed")
		prepCache   = flag.Bool("preprocess-cache", true, "share one preprocessing cache (skyband, convex points, 2-d partitions) across all sessions")
		prepBytes   = flag.Int64("preprocess-cache-max-bytes", 64<<20, "byte cap on memoized preprocessing values, evicted LRU (<=0 = unbounded)")
	)
	flag.Parse()

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "istserve:", err)
			os.Exit(1)
		}
	}

	rng := rand.New(rand.NewSource(*seed))
	ds, err := ist.DatasetByName(*name, rng, *n, *d)
	if err != nil {
		fmt.Fprintln(os.Stderr, "istserve:", err)
		os.Exit(1)
	}
	// The shared preprocessing cache spans sessions AND the boot-time skyband:
	// PreprocessCached seeds it so the first session already finds the skyband
	// entry warm.
	var cache *ist.PreprocessCache
	if *prepCache {
		cache = ist.NewPreprocessCache(*prepBytes)
	}
	var band []ist.Point
	if cache != nil {
		band = ist.PreprocessCached(cache, ds.Points, *k)
	} else {
		band = ist.Preprocess(ds.Points, *k)
	}

	policy, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "istserve:", err)
		os.Exit(1)
	}
	// One registry for everything /metrics exposes: the server's session
	// metrics and the store's durability metrics land side by side.
	reg := obs.NewRegistry()
	var store server.SessionStore
	if *storeDir != "" {
		ws, err := server.OpenWALStore(*storeDir, server.WALOptions{
			Fsync:         policy,
			FsyncEvery:    *fsyncEvery,
			SnapshotEvery: *snapEvery,
			Metrics:       wal.NewMetrics(reg),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "istserve:", err)
			os.Exit(1)
		}
		store = ws
	}
	// The listener comes up BEFORE session rehydration so that readiness is
	// honest from the first instant: while the WAL replays, /healthz says
	// the process is alive ("starting"), /readyz says 503 do-not-route, and
	// everything else is refused with Retry-After. Once the server is built
	// the handler is swapped in atomically.
	var handler atomic.Pointer[http.Handler]
	boot := http.Handler(bootHandler{})
	handler.Store(&boot)
	httpSrv := &http.Server{
		Addr: *addr,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handler.Load()).ServeHTTP(w, r)
		}),
		// Per-request read/write deadlines bound a stalled or malicious
		// client; the handler work itself is sub-second, so generous values
		// only guard the transport.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	srv, err := server.New(band, *k, server.Options{
		Seed:             *seed,
		TTL:              *ttl,
		ReapInterval:     *reap,
		MaxSessions:      *maxSessions,
		Store:            store,
		MaxQuestions:     *maxQ,
		SessionDeadline:  *deadline,
		TraceDir:         *traceDir,
		Tracing:          *tracing,
		TraceMaxBytes:    *traceBytes,
		Metrics:          reg,
		MaxInflight:      *maxInflight,
		AdmissionTimeout: *admTimeout,
		PrepCache:        cache,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "istserve:", err)
		os.Exit(1)
	}
	live := http.Handler(srv)
	handler.Store(&live)
	log.Printf("istserve %s (%s): %s, %d tuples (%d in the %d-skyband), %d sessions rehydrated",
		server.BuildVersion(), runtime.Version(), ds.Name, ds.Size(), len(band), *k, srv.Sessions())
	cacheState := "off"
	if cache != nil {
		cacheState = fmt.Sprintf("%d entries warm", cache.Stats().Entries)
	}
	log.Printf("istserve: ready on %s (health at /healthz, readiness at /readyz, metrics at /metrics, profiles at /debug/pprof/, max %d sessions, %d in-flight, ttl %s, preprocess cache %s)",
		*addr, *maxSessions, *maxInflight, *ttl, cacheState)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal("istserve: ", err)
	case sig := <-sigc:
		// Drain in two phases: flip /readyz to 503 (load balancers stop
		// routing, new sessions are refused, in-flight dialogues keep
		// answering), then shut the listener down gracefully.
		if srv.BeginDrain() {
			log.Printf("istserve: %v: draining (readyz now 503, refusing new sessions)", sig)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("istserve: shutdown: %v", err)
		}
		// Sessions close but (with -store-dir) stay persisted: the next start
		// resumes them where the users left off.
		srv.Close()
		log.Print("istserve: drained, bye")
	}
}

// bootHandler serves the window between bind and rehydration: alive but not
// ready. Clients that race the boot get an honest 503 + Retry-After instead
// of a connection refused, so their retry layer handles it like any other
// transient overload.
type bootHandler struct{}

func (bootHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/healthz":
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"starting"}`)
	default:
		w.Header().Set("Retry-After", "1")
		if r.URL.Path == "/readyz" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"starting"}`)
			return
		}
		http.Error(w, "server starting", http.StatusServiceUnavailable)
	}
}
