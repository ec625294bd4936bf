package main

// The compare command is the offline regression gate: it reads two files of
// --record lines (a base and a head, each several runs per workload) and
// applies BENCHMARK.json's per-metric bounds to the medians, using only the
// standard library.
//
//	bash servebench/run.sh compare [-bench BENCHMARK.json] base.jsonl head.jsonl

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// summary is a metric's distribution over a file's runs, with quartiles as
// Python's statistics.quantiles(values, n=4) computes them.
type summary struct {
	q1, med, q3 float64
	min, max    float64
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.med
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, med, q3 := quartiles(s)
	return summary{q1: q1, med: med, q3: q3, min: s[0], max: s[len(s)-1]}
}

// quartiles returns the first quartile, median and third quartile of sorted
// data by the "exclusive" method of Python's statistics.quantiles, which is
// what the benchmark's steadiness rule is stated in. One value is its own
// quartiles.
func quartiles(s []float64) (q1, med, q3 float64) {
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

// verdict is the comparison of one metric on one workload.
type verdict struct {
	metric     string
	base, head summary
	// worse is the head median's change against the base median, signed so
	// that positive is a regression whichever way the metric improves.
	worse  float64
	status string // ok, better, unresolved, regressed
}

// compareMetric applies a metric's bound. A metric whose run-to-run spread
// on either side is wider than its bound is unresolved, unless every head
// run beats every base run; a median beyond the bound is a regression
// either way.
func compareMetric(spec metricSpec, base, head []float64) verdict {
	v := verdict{metric: spec.Name, base: summarize(base), head: summarize(head)}
	if v.base.med != 0 {
		v.worse = (v.head.med - v.base.med) / v.base.med
	}
	higher := spec.Better == "higher"
	if higher {
		v.worse = -v.worse
	}
	allBetter := v.head.max < v.base.min
	if higher {
		allBetter = v.head.min > v.base.max
	}
	switch {
	case v.worse > spec.Bound:
		v.status = "regressed"
	case v.base.spread() > spec.Bound || v.head.spread() > spec.Bound:
		v.status = "unresolved"
		if allBetter {
			v.status = "better"
		}
	case -v.worse > spec.Bound:
		v.status = "better"
	default:
		v.status = "ok"
	}
	return v
}

// runSet holds one file's records grouped by workload.
type runSet map[string][]record

func readRecords(r io.Reader) (runSet, error) {
	set := runSet{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("bad record line: %w", err)
		}
		set[rec.Workload] = append(set[rec.Workload], rec)
	}
	return set, sc.Err()
}

// values collects a metric over the runs of one trace mode.
func values(recs []record, trace int, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok && r.Trace == trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// errorRate is failed over attempted sessions across every run; a run that
// reported correct=false counts as at least one failure.
func errorRate(recs []record) float64 {
	failed, attempted := 0, 0
	for _, r := range recs {
		f := r.Result.Failed
		if !r.Result.Correct {
			f = max(f, 1)
		}
		failed += f
		attempted += max(r.Result.Attempted, 1)
	}
	return float64(failed) / float64(max(attempted, 1))
}

// compareSets writes the comparison and reports whether the gate passes: no
// end-to-end metric regressed beyond its bound, no workload's error rate
// rose, and every base workload was measured in the head.
func compareSets(w io.Writer, spec benchSpec, base, head runSet) bool {
	pass := true
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, wl := range names {
		hrecs, ok := head[wl]
		if !ok {
			fmt.Fprintf(w, "%s: not measured in head\n", wl)
			pass = false
			continue
		}
		be, he := errorRate(base[wl]), errorRate(hrecs)
		status := "ok"
		if he > be {
			status = "regressed"
			pass = false
		}
		fmt.Fprintf(w, "%s\n  %-30s %12.6g %12.6g  %s\n", wl, "error_rate", be, he, status)
		for _, m := range spec.EndToEnd {
			bv, hv := values(base[wl], 0, m.Name), values(hrecs, 0, m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			v := compareMetric(m, bv, hv)
			if v.status == "regressed" {
				pass = false
			}
			fmt.Fprintf(w, "  %-30s %12.6g %12.6g  %+6.1f%% (bound %.0f%%, spread %.1f%%/%.1f%%)  %s\n",
				m.Name, v.base.med, v.head.med, 100*v.worse, 100*m.Bound,
				100*v.base.spread(), 100*v.head.spread(), v.status)
		}
		for _, m := range spec.PerLayer {
			bv, hv := values(base[wl], 1, m.Name), values(hrecs, 1, m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-30s %12.6g %12.6g  %s\n", m.Name, summarize(bv).med, summarize(hv).med, m.Unit)
		}
	}
	return pass
}

// compareMain runs the compare command; it returns the process exit code.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: servebench compare [-bench BENCHMARK.json] base.jsonl head.jsonl")
		return 2
	}
	var spec benchSpec
	data, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench compare:", err)
		return 2
	}
	var sets [2]runSet
	for i, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench compare:", err)
			return 2
		}
		sets[i], err = readRecords(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench compare: %s: %v\n", path, err)
			return 2
		}
	}
	fmt.Printf("%-32s %12s %12s\n", "metric", "base p50", "head p50")
	if !compareSets(os.Stdout, spec, sets[0], sets[1]) {
		fmt.Println("FAIL: a metric regressed beyond its bound or the error rate rose")
		return 1
	}
	fmt.Println("PASS")
	return 0
}
