package main

import (
	"io"
	"math"
	"sort"
	"strings"
	"testing"
)

// The expected quartiles are statistics.quantiles(data, n=4) and
// statistics.median(data) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data        []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3.1, 1.2, 9.9, 4.4}, 1.6749999999999998, 3.75, 8.525},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{2, 2, 2}, 2, 2, 2},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		s := append([]float64(nil), c.data...)
		sort.Float64s(s)
		q1, med, q3 := quartiles(s)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.data, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestCompareMetric(t *testing.T) {
	lower := metricSpec{Name: "answer_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "sessions_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	cases := []struct {
		name       string
		spec       metricSpec
		base, head []float64
		want       string
	}{
		{"same", lower, steady, []float64{10.1, 10, 9.95, 10.02, 10}, "ok"},
		{"slower within bound", lower, steady, []float64{10.8, 10.9, 10.7, 10.8, 10.85}, "ok"},
		{"slower beyond bound", lower, steady, []float64{11.5, 11.6, 11.4, 11.5, 11.55}, "regressed"},
		{"faster beyond bound", lower, steady, []float64{8, 8.1, 7.9, 8, 8.05}, "better"},
		{"throughput drop", higher, steady, []float64{8.5, 8.6, 8.4, 8.5, 8.55}, "regressed"},
		{"throughput gain", higher, steady, []float64{12, 12.1, 11.9, 12, 12.05}, "better"},
		{"noisy head", lower, steady, []float64{7, 13, 10, 8, 12}, "unresolved"},
		{"noisy but all better", lower, []float64{10, 14, 12, 10.5, 13.5}, []float64{5, 7, 6, 5.5, 6.5}, "better"},
		{"noisy and slower", lower, steady, []float64{9, 16, 12, 10, 15}, "regressed"},
	}
	for _, c := range cases {
		if got := compareMetric(c.spec, c.base, c.head).status; got != c.want {
			t.Errorf("%s: status %q, want %q", c.name, got, c.want)
		}
	}
}

func runs(workload string, failed int, name string, vals ...float64) []record {
	var out []record
	for _, v := range vals {
		out = append(out, record{Workload: workload, Result: result{
			Correct: failed == 0, Attempted: 100, Failed: failed,
			Metrics: map[string]metric{name: {Value: v, Unit: "ms"}},
		}})
	}
	return out
}

func TestCompareSetsGate(t *testing.T) {
	spec := benchSpec{EndToEnd: []metricSpec{{Name: "answer_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	base := runSet{"w": runs("w", 0, "answer_p50_ms", 1, 1.01, 0.99)}
	cases := []struct {
		name string
		head runSet
		pass bool
	}{
		{"unchanged", runSet{"w": runs("w", 0, "answer_p50_ms", 1, 1.02, 0.98)}, true},
		{"regressed", runSet{"w": runs("w", 0, "answer_p50_ms", 1.3, 1.31, 1.29)}, false},
		{"error rate rose", runSet{"w": runs("w", 1, "answer_p50_ms", 1, 1.02, 0.98)}, false},
		{"workload missing", runSet{"other": runs("other", 0, "answer_p50_ms", 1)}, false},
	}
	for _, c := range cases {
		if got := compareSets(io.Discard, spec, base, c.head); got != c.pass {
			t.Errorf("%s: pass = %v, want %v", c.name, got, c.pass)
		}
	}
}

func TestReadRecords(t *testing.T) {
	in := `{"workload":"rh-mem","seed":1,"trace":0,"host_cpus":2,"result":{"correct":true,"attempted":5,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}}

{"workload":"rh-mem","seed":2,"trace":1,"host_cpus":2,"result":{"correct":true,"attempted":5,"failed":0,"metrics":{}}}
`
	set, err := readRecords(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(set["rh-mem"]); got != 2 {
		t.Fatalf("read %d rh-mem records, want 2", got)
	}
	if got := values(set["rh-mem"], 0, "setup_s"); len(got) != 1 || got[0] != 0.5 {
		t.Errorf("setup_s values = %v, want [0.5]", got)
	}
	if _, err := readRecords(strings.NewReader("{not json\n")); err == nil {
		t.Error("a malformed line was accepted")
	}
}
