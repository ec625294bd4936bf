package experiments

import (
	"runtime"
	"time"

	"ist/internal/hull"
	"ist/internal/obs"
	"ist/internal/prep"
	"ist/internal/skyband"
)

// SessionsThroughput profiles the serving path's per-session preprocessing
// on an anti-correlated dataset (DESIGN.md §14):
//
//   - The exact convex-point scan: its wall-clock time, its LP solve count
//     and the heap allocations per LP solve, which documents the pooled
//     simplex scratch (the whole scan should sit at a handful of allocations
//     per solve: the returned vertex plus scan bookkeeping, where the
//     unpooled solver alone paid ~90).
//
//   - The shared preprocessing cache: time to assemble a session's
//     preprocessing (k-skyband + exact convex points) cold versus from a
//     warm prep.Cache — the per-session setup cost a high-session-count
//     server pays once instead of per session.
//
// Wall-clock numbers are only meaningful next to host_cpus.
func SessionsThroughput(cfg Config) *Table {
	cfg = cfg.withDefaults()
	// One representative k: small enough that the skyband is convex-point
	// heavy (the LP-bound regime), matching the k used by the hull package's
	// micro-benchmarks.
	const k = 3
	tab := newTable("Sessions throughput (anti-correlated)", "k", []float64{k})

	points := buildDataset("anti", cfg).Points
	band := preprocess(points, k)

	var scanSec float64
	var solves, allocs uint64
	for trial := 0; trial < cfg.Trials; trial++ {
		c := obs.NewCounting()
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		if _, err := hull.ConvexPointsExact(band, nil, c); err != nil {
			panic(err)
		}
		scanSec += time.Since(start).Seconds()
		runtime.ReadMemStats(&ms1)
		solves += uint64(c.Count(obs.KindLPSolve))
		allocs += ms1.Mallocs - ms0.Mallocs
	}
	f := float64(cfg.Trials)
	tab.add("convex_wall_ms", "serial", []float64{scanSec / f * 1000})
	tab.add("lp_solves", "per_scan", []float64{float64(solves) / f})
	var allocsPerSolve float64
	if solves > 0 {
		allocsPerSolve = float64(allocs) / float64(solves)
	}
	tab.add("allocs_per_lp_solve", "pooled_scratch", []float64{allocsPerSolve})
	tab.add("host_cpus", "host", []float64{float64(runtime.NumCPU())})

	// Shared preprocessing cache: cold populate vs warm replay of the full
	// session-setup sequence (skyband + exact convex points), keyed the way
	// the server keys them.
	cache := prep.New(0)
	// The fingerprint only namespaces keys inside this private cache; any
	// non-zero constant works (the server derives it from the dataset).
	const fp = 1
	setup := func() {
		bandKey := prep.Key{Fingerprint: fp, Kind: "skyband", Param: k}
		v, err := cache.Do(bandKey, nil, func(obs.Observer) (any, int64, error) {
			idx := skyband.KSkyband(points, k)
			return idx, int64(len(idx))*8 + 24, nil
		})
		if err != nil {
			panic(err)
		}
		pts := skyband.Filter(points, v.([]int))
		convexKey := prep.Key{Fingerprint: fp, Kind: "convex-exact"}
		if _, err := cache.Do(convexKey, nil, func(o obs.Observer) (any, int64, error) {
			vs, cerr := hull.ConvexPointsExact(pts, nil, o)
			return vs, int64(len(vs))*8 + 24, cerr
		}); err != nil {
			panic(err)
		}
	}
	start := time.Now()
	setup()
	coldSec := time.Since(start).Seconds()
	var warmSec float64
	for trial := 0; trial < cfg.Trials; trial++ {
		start := time.Now()
		setup()
		warmSec += time.Since(start).Seconds()
	}
	warmSec /= float64(cfg.Trials)

	speedup := 0.0
	if warmSec > 0 {
		speedup = coldSec / warmSec
	}
	tab.add("preprocess_cold_ms", "cold", []float64{coldSec * 1000})
	tab.add("preprocess_cached_ms", "cached", []float64{warmSec * 1000})
	tab.add("preprocess_cache_speedup", "cold_over_cached", []float64{speedup})

	return tab
}
