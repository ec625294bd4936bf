package hull

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"ist/internal/clock"
	"ist/internal/dataset"
	"ist/internal/geom"
	"ist/internal/lp"
	"ist/internal/obs"
	"ist/internal/skyband"
)

// freezeLPClock pins traced-solve timing to a constant so event streams from
// separate runs can be compared with DeepEqual.
func freezeLPClock(t *testing.T) {
	t.Helper()
	lp.SetClock(clock.NewFake(time.Unix(0, 0)))
	t.Cleanup(func() { lp.SetClock(nil) })
}

func antiCorrelatedBand(t testing.TB, n, d, k int) []geom.Vector {
	t.Helper()
	ds := dataset.AntiCorrelated(rand.New(rand.NewSource(42)), n, d)
	band := skyband.KSkyband(ds.Points, k)
	pts := make([]geom.Vector, len(band))
	for i, idx := range band {
		pts[i] = ds.Points[idx]
	}
	return pts
}

// scanRun is one exact scan's result and event stream.
type scanRun struct {
	v      []int
	err    error
	events []obs.Event
}

// scanConcurrently runs n exact scans of pts at once, the way a server
// runs the cold scans of concurrent sessions: they share the LP solver's
// scratch pool and the margin-staging pool. mkStop builds each
// scan's own stop predicate (nil for none); record selects a recording
// observer over the nil fast path.
func scanConcurrently(pts []geom.Vector, n int, mkStop func() func() bool, record bool) []scanRun {
	out := make([]scanRun, n)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var stop func() bool
			if mkStop != nil {
				stop = mkStop()
			}
			var o obs.Observer
			rec := &obs.Recorder{}
			if record {
				o = rec
			}
			out[i].v, out[i].err = ConvexPointsExact(pts, stop, o)
			out[i].events = rec.Events()
		}()
	}
	wg.Wait()
	return out
}

// sameScan fails unless got matches want in points, error and events.
func sameScan(t *testing.T, name string, want, got scanRun) {
	t.Helper()
	if got.err != nil || want.err != nil {
		t.Fatalf("%s: errors %v / %v", name, got.err, want.err)
	}
	if !reflect.DeepEqual(got.v, want.v) {
		t.Fatalf("%s: convex points diverge\ngot  %v\nwant %v", name, got.v, want.v)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Fatalf("%s: event stream diverges (%d events vs %d)", name, len(got.events), len(want.events))
	}
}

// TestConcurrentScansMatchSerial runs several exact scans at once and
// requires each to return the same convex points AND a bit-identical event
// stream to a lone scan: pooled solver and staging buffers must never carry
// state from one concurrent scan into another.
func TestConcurrentScansMatchSerial(t *testing.T) {
	freezeLPClock(t)
	pts := antiCorrelatedBand(t, 300, 5, 3)
	want := scanConcurrently(pts, 1, nil, true)[0]
	for i, got := range scanConcurrently(pts, 4, nil, true) {
		sameScan(t, fmt.Sprintf("scan %d", i), want, got)
	}
}

// TestConcurrentScansMatchSerialNilObserver checks the nil-observer fast
// path — concurrent scans must still agree when nobody is recording.
func TestConcurrentScansMatchSerialNilObserver(t *testing.T) {
	pts := antiCorrelatedBand(t, 200, 4, 2)
	want := scanConcurrently(pts, 1, nil, false)[0]
	for i, got := range scanConcurrently(pts, 4, nil, false) {
		sameScan(t, fmt.Sprintf("scan %d", i), want, got)
	}
}

// TestConcurrentScansStopImmediately: a stop() that is already true yields
// the seed confirms only, in every concurrent scan.
func TestConcurrentScansStopImmediately(t *testing.T) {
	freezeLPClock(t)
	pts := antiCorrelatedBand(t, 120, 4, 2)
	mkStop := func() func() bool { return func() bool { return true } }
	want := scanConcurrently(pts, 1, mkStop, true)[0]
	seeds := map[int]bool{}
	for _, u := range seedUtilities(4) {
		seeds[argmax(pts, u, -1)] = true
	}
	if len(want.v) != len(seeds) {
		t.Fatalf("immediate stop kept %v, want only the %d seed winners", want.v, len(seeds))
	}
	for i, got := range scanConcurrently(pts, 4, mkStop, true) {
		sameScan(t, fmt.Sprintf("scan %d", i), want, got)
	}
}

// TestConcurrentScansStopMidway: the stop predicate is called once per
// unconfirmed candidate, in candidate order, so a count-based budget cuts
// every concurrent scan at the same place as a lone one.
func TestConcurrentScansStopMidway(t *testing.T) {
	freezeLPClock(t)
	pts := antiCorrelatedBand(t, 250, 5, 3)
	full := scanConcurrently(pts, 1, nil, false)[0]
	for _, budget := range []int{1, 7, 40} {
		mkStop := func() func() bool {
			calls := 0
			return func() bool {
				calls++
				return calls > budget
			}
		}
		want := scanConcurrently(pts, 1, mkStop, true)[0]
		if !isSubset(want.v, full.v) || len(want.v) > len(full.v) {
			t.Fatalf("budget=%d: stopped scan %v is not part of the full scan %v", budget, want.v, full.v)
		}
		for i, got := range scanConcurrently(pts, 4, mkStop, true) {
			sameScan(t, fmt.Sprintf("budget=%d scan %d", budget, i), want, got)
		}
	}
}

// BenchmarkConvexPointsExact is the serial baseline on the acceptance
// workload: the k-skyband of an anti-correlated 6-d dataset.
func BenchmarkConvexPointsExact(b *testing.B) {
	pts := antiCorrelatedBand(b, 400, 6, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustExact(b, pts)
	}
}

// BenchmarkMaxMinMargin measures one hot-loop LP staging + solve (the unit
// of work the scratch arena de-allocates).
func BenchmarkMaxMinMargin(b *testing.B) {
	pts := antiCorrelatedBand(b, 400, 6, 3)
	against := mustExact(b, pts)
	p := -1
	seen := map[int]bool{}
	for _, q := range against {
		seen[q] = true
	}
	for i := range pts {
		if !seen[i] {
			p = i
			break
		}
	}
	if p < 0 {
		b.Skip("every point convex; no candidate to test")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		maxMinMargin(pts, p, against, nil)
	}
}

// BenchmarkArgmax measures the witness verification scan.
func BenchmarkArgmax(b *testing.B) {
	pts := antiCorrelatedBand(b, 400, 6, 3)
	u := geom.NewVector(6)
	for i := range u {
		u[i] = 1 / 6.0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		argmax(pts, u, i%len(pts))
	}
}
