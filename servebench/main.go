// Command servebench is the repository's end-to-end benchmark of the served
// system. It runs internal/server's handler in-process behind a loopback
// listener and drives it through ist/client with a closed loop of simulated
// users, each answering from a hidden utility. Per-layer numbers come from
// wrappers the benchmark installs through the server's public hooks; the
// program itself is unchanged. NOTES.md describes the workloads and metrics.
//
//	bash servebench/run.sh --workload rh-mem --seed 1 --seconds 38 --trace 0
//	bash servebench/run.sh --workload all --seconds 38
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones, measured with the benchmark's wrappers off; with
// --trace 1 they are the per-layer ones from a traced rerun of the same
// sessions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
	"unsafe"

	"ist"
)

// A run builds the served system at least minSetups times and until
// minSetupTime has passed (at most maxSetups times); setup_s is the median,
// and the last build serves the timed phase. Repeating keeps a set-up of a
// few milliseconds from reading as noise.
const (
	minSetups    = 5
	maxSetups    = 50
	minSetupTime = 2 * time.Second
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark's contract requires.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a --record file, the input of the compare command.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	HostCPUs int    `json:"host_cpus"`
	Result   result `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload to run, or \"all\": "+workloadNames())
		seed    = flag.Int64("seed", 1, "traffic seed: user utilities and per-session algorithm seeds")
		seconds = flag.Int("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics; 1 = per-layer metrics from a traced rerun")
		out     = flag.String("record", "", "append each result as a JSON line to this file (for the compare command)")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(2)
		}
		ws = []workload{w}
	}
	allCorrect := true
	for _, w := range ws {
		res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		printTable(w, res)
		if *out != "" {
			if err := appendRecord(*out, record{w.name, *seed, *trace, runtime.NumCPU(), res}); err != nil {
				fmt.Fprintln(os.Stderr, "servebench:", err)
				os.Exit(1)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		allCorrect = allCorrect && res.Correct
	}
	if *name == "all" && !allCorrect {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

func run(w workload, seed int64, d time.Duration, traced bool) (result, error) {
	if traced {
		return runTraced(w, seed, d)
	}
	return runUntraced(w, seed, d)
}

// runUntraced measures the end-to-end metrics.
func runUntraced(w workload, seed int64, d time.Duration) (result, error) {
	inst, setupS, err := repeatedSetup(w, seed)
	if err != nil {
		return result{}, err
	}
	ph := inst.drive(context.Background(), users, timeLimit(d), nil)
	heapMB := liveHeapMB(&ph)
	inst.close()

	bad := check(inst, &ph)
	res := result{Attempted: len(ph.sessions), Failed: bad}
	res.Correct = bad == 0
	qs := 0
	for _, s := range ph.sessions {
		qs += int(s.questions)
	}
	done := max(len(ph.sessions)-bad, 1)
	res.Metrics = map[string]metric{
		"sessions_per_s":        {throughput(ph.sessions, d), "1/s"},
		"create_p50_ms":         {windowMedian(ph.creates, d, 50), "ms"},
		"create_p90_ms":         {windowMedian(ph.creates, d, 90), "ms"},
		"answer_p50_ms":         {windowMedian(ph.answers, d, 50), "ms"},
		"answer_p90_ms":         {windowMedian(ph.answers, d, 90), "ms"},
		"questions_per_session": {float64(qs) / float64(done), "count"},
		"heap_live_mb":          {heapMB, "MB"},
		"setup_s":               {setupS, "s"},
	}
	return res, nil
}

// repeatedSetup builds the served system repeatedly, keeps the last build
// and returns the median set-up time in seconds.
func repeatedSetup(w workload, seed int64) (*instance, float64, error) {
	var (
		times []float64
		total time.Duration
		inst  *instance
	)
	for len(times) < minSetups || (total < minSetupTime && len(times) < maxSetups) {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = setup(w, seed, nil); err != nil {
			return nil, 0, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
	}
	return inst, median(times), nil
}

// liveHeapMB is the live heap after a GC at the end of the timed phase,
// less the benchmark's own latency and session buffers.
func liveHeapMB(ph *phase) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	own := int(unsafe.Sizeof(sample{}))*(cap(ph.creates)+cap(ph.answers)) +
		int(unsafe.Sizeof(sessionResult{}))*cap(ph.sessions)
	return float64(int64(ms.HeapAlloc)-int64(own)) / (1 << 20)
}

// check verifies every session of a phase off the clock: it finished with
// the result the server named, that result is in the user's true top-k of
// the full dataset, and 2D-PI kept its Thm 4.5 bound. It returns the number
// of sessions that failed.
func check(inst *instance, ph *phase) int {
	_, upper := ist.TheoryBounds(len(inst.band), inst.w.k)
	d := len(inst.band[0])
	bad := make([]int, runtime.NumCPU())
	var wg sync.WaitGroup
	for part := range bad {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := part; i < len(ph.sessions); i += len(bad) {
				s := ph.sessions[i]
				ok := s.ok &&
					ist.IsTopK(inst.full, utility(inst.seed, s.id, d), inst.w.k, inst.band[s.resultID]) &&
					(!inst.w.thm45 || float64(s.questions) <= upper)
				if !ok {
					bad[part]++
				}
			}
		}()
	}
	wg.Wait()
	n := 0
	for _, b := range bad {
		n += b
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "servebench: %s: %d of %d sessions failed the correctness check\n", inst.w.name, n, len(ph.sessions))
	}
	return n
}

func printTable(w workload, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	errRate := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Printf("%s  host_cpus=%d  sessions=%d  error_rate=%g\n", w.name, runtime.NumCPU(), res.Attempted, errRate)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
