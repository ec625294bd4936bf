package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"ist"
	"ist/client"
	"ist/internal/obs"
	"ist/internal/server"
	"ist/internal/wal"
)

// workload is one traffic mix: the dataset the server is started on, the
// algorithm every session asks for, and the server options that differ from
// istserve's flag defaults. NOTES.md says why each one exists.
type workload struct {
	name    string
	dataset string
	n, d, k int
	alg     string
	// walStore persists sessions to a WAL store in a temporary directory,
	// with -fsync interval at istserve's default 100ms and -snapshot-every
	// 256. NOTES.md says why the policy is not istserve's default "always".
	walStore bool
	// prepCache shares one preprocessing cache across sessions, as
	// istserve's default -preprocess-cache=true does.
	prepCache bool
	// warmup runs one untimed session during set-up, so every timed session
	// finds the cache filled.
	warmup bool
	// thm45 checks every session against the Thm 4.5 upper bound, which
	// only 2D-PI guarantees.
	thm45 bool
}

// workloads are the traffic mixes --workload accepts. BENCHMARK.json gates
// on all but 2dpi-wal, whose figures swing with the host more than a bound
// may allow (NOTES.md); hdpi-warm carries the WAL store in its place.
var workloads = []workload{
	{name: "rh-mem", dataset: "anti", n: 10000, d: 4, k: 5, alg: "rh", prepCache: true},
	{name: "2dpi-wal", dataset: "island", n: 100000, d: 2, k: 1, alg: "2dpi", walStore: true, prepCache: true, thm45: true},
	{name: "hdpi-cold", dataset: "car", n: 1000, d: 4, k: 20, alg: "hdpi-accurate"},
	{name: "hdpi-warm", dataset: "car", n: 1000, d: 4, k: 20, alg: "hdpi-accurate", walStore: true, prepCache: true, warmup: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// datasetSeed fixes the catalogue every run serves (istserve's default
// -seed). The workload seed varies the traffic instead: the users' hidden
// utilities and the per-session algorithm seeds.
const datasetSeed = 1

// seedStride spaces the server seeds of two workload seeds apart. The server
// seeds session N with Options.Seed+N, so consecutive Options.Seed values
// would replay the same sessions shifted by one id.
const seedStride = 1 << 20

// instance is one served system: the dataset, the handler behind a loopback
// listener, and everything needed to read its layers afterwards.
type instance struct {
	w       workload
	seed    int64 // server Options.Seed
	full    []ist.Point
	band    []ist.Point
	reg     *obs.Registry
	cache   *ist.PreprocessCache
	srv     *server.Server
	hs      *httptest.Server
	walDir  string
	clients *http.Transport
}

// setup builds the served system for one run. A non-nil tracer installs the
// benchmark's wrappers around the handler, the store and every algorithm;
// the server options are otherwise those of an untraced run.
func setup(w workload, seed int64, tr *tracer) (*instance, error) {
	ds, err := ist.DatasetByName(w.dataset, rand.New(rand.NewSource(datasetSeed)), w.n, w.d)
	if err != nil {
		return nil, err
	}
	inst := &instance{w: w, seed: seed * seedStride, full: ds.Points, reg: obs.NewRegistry()}
	if w.prepCache {
		inst.cache = ist.NewPreprocessCache(64 << 20) // istserve -preprocess-cache-max-bytes
	}
	inst.band = ist.PreprocessCached(inst.cache, ds.Points, w.k)

	// istserve's flag defaults, except Store, PrepCache and Parallelism.
	opt := server.Options{
		Seed:             inst.seed,
		TTL:              15 * time.Minute,
		ReapInterval:     time.Minute,
		MaxSessions:      1024,
		Tracing:          true,
		TraceMaxBytes:    server.DefaultTraceMaxBytes,
		Metrics:          inst.reg,
		MaxInflight:      256,
		AdmissionTimeout: 250 * time.Millisecond,
		PrepCache:        inst.cache,
	}
	if w.walStore {
		if inst.walDir, err = os.MkdirTemp("", "servebench-wal-"); err != nil {
			return nil, err
		}
		ws, err := server.OpenWALStore(inst.walDir, server.WALOptions{
			Fsync:         wal.SyncInterval,
			FsyncEvery:    100 * time.Millisecond,
			SnapshotEvery: 256,
			Metrics:       wal.NewMetrics(inst.reg),
		})
		if err != nil {
			_ = os.RemoveAll(inst.walDir)
			return nil, err
		}
		opt.Store = ws
	}
	if tr != nil {
		if opt.Store != nil {
			opt.Store = &timedStore{inner: opt.Store, t: tr}
		}
		opt.WrapAlgorithm = tr.wrapAlgorithm
	}
	if inst.srv, err = server.New(inst.band, w.k, opt); err != nil {
		if opt.Store != nil {
			_ = opt.Store.Close()
		}
		_ = os.RemoveAll(inst.walDir)
		return nil, err
	}
	var h http.Handler = inst.srv
	if tr != nil {
		h = tr.middleware(inst.srv)
	}
	inst.hs = httptest.NewServer(h)
	inst.clients = &http.Transport{MaxIdleConnsPerHost: users}
	if w.warmup {
		if ph := inst.drive(context.Background(), 1, countLimit(1), nil); ph.failed() > 0 {
			inst.close()
			return nil, fmt.Errorf("%s: warm-up session failed", w.name)
		}
	}
	return inst, nil
}

// newClient returns one simulated user's API client. Each user owns its
// client, as separate humans would; the retry jitter is seeded per user.
func (inst *instance) newClient(user int, reg *obs.Registry) (*client.Client, error) {
	return client.New(inst.hs.URL, client.Options{
		HTTP:    &http.Client{Transport: inst.clients},
		Rand:    rand.New(rand.NewSource(inst.seed + int64(user))),
		Metrics: reg,
	})
}

// close stops the listener and the server and removes the WAL directory.
func (inst *instance) close() {
	inst.hs.Close()
	inst.clients.CloseIdleConnections()
	inst.srv.Close()
	if inst.walDir != "" {
		_ = os.RemoveAll(inst.walDir)
	}
}
