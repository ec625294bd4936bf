// Command istcli runs a live interactive IST session in the terminal: it
// generates (or loads) a dataset, asks YOU the pairwise questions, and
// returns a tuple guaranteed to be among your top-k.
//
// Usage:
//
//	istcli                          # 1000 used cars, top-20, RH
//	istcli -alg hdpi -k 10 -n 500
//	istcli -dataset nba -alg rh
//	istcli -simulate                # answer with a random hidden utility
//	istcli -store-dir mysession     # crash-resumable: rerun to continue
//	istcli -server http://host:8080 # drive a remote istserve session
//
// Answer each question with 1 or 2. With -store-dir every answer is
// fsynced to a write-ahead log before the next question appears; if the
// terminal dies, rerunning the same command replays the transcript and
// resumes exactly where you left off, and completing the session removes
// the directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"ist"
	"ist/internal/wal"
)

var attrNames = map[string][]string{
	"car":     {"cheapness", "year", "power", "condition"},
	"nba":     {"points", "rebounds", "assists", "steals", "blocks", "minutes"},
	"weather": {"temperature", "dryness", "calm-wind", "sunshine"},
	"island":  {"coast-access", "elevation"},
}

func main() {
	var (
		name     = flag.String("dataset", "car", "anti|corr|indep|island|weather|car|nba")
		load     = flag.String("load", "", "load tuples from a CSV file instead of generating (normalized to (0,1], larger better)")
		n        = flag.Int("n", 1000, "number of candidate tuples")
		d        = flag.Int("d", 4, "dimensionality (synthetic families only)")
		k        = flag.Int("k", 20, "return one of your top-k")
		algName  = flag.String("alg", "rh", "rh|hdpi|hdpi-accurate|2dpi")
		want     = flag.Int("want", 1, "how many of the top-k to return (>1 uses the SomeTopK variants, rh/hdpi only)")
		seed     = flag.Int64("seed", 0, "random seed (0 = time-based)")
		simulate = flag.Bool("simulate", false, "answer automatically with a random hidden utility")
		maxQ     = flag.Int("max-questions", 0, "answer best-effort after this many questions (0 = unlimited)")
		timeout  = flag.Duration("timeout", 0, "answer best-effort after this much time (0 = none)")
		trace    = flag.Bool("trace", false, "stream structured trace events to stderr as JSON lines")
		storeDir = flag.String("store-dir", "", "persist every answer to a write-ahead log in this directory; rerunning with the same flags resumes a crashed session without re-asking (removed on completion)")
		server   = flag.String("server", "", "drive a remote istserve session at this base URL (e.g. http://localhost:8080) instead of running locally; retries and duplicate deliveries are absorbed by the exactly-once protocol")
	)
	flag.Parse()

	if *want > 1 && (*maxQ > 0 || *timeout > 0) {
		fmt.Fprintln(os.Stderr, "istcli: -want > 1 does not support -max-questions or -timeout")
		os.Exit(1)
	}
	if *server != "" {
		if *storeDir != "" || *load != "" || *want > 1 {
			fmt.Fprintln(os.Stderr, "istcli: -server is incompatible with -store-dir, -load and -want (the server owns the dataset and transcript)")
			os.Exit(1)
		}
		if *seed == 0 {
			*seed = time.Now().UnixNano()
		}
		os.Exit(runRemote(*server, *algName, *k, *simulate, *trace, rand.New(rand.NewSource(*seed))))
	}

	// A resumable transcript must be opened before the RNG exists: the
	// recovered metadata pins the seed (and thereby the dataset, the
	// question sequence and the simulated user) of the original run.
	var tlog *wal.Log
	var saved []bool
	var meta *transcriptMeta
	if *storeDir != "" {
		if *want > 1 {
			fmt.Fprintln(os.Stderr, "istcli: -store-dir does not support -want > 1")
			os.Exit(1)
		}
		var recov *wal.Recovery
		var err error
		tlog, recov, err = wal.Open(*storeDir, wal.Options{}) // fsync always: an answered question is never re-asked
		if err != nil {
			fmt.Fprintln(os.Stderr, "istcli:", err)
			os.Exit(1)
		}
		for _, p := range recov.Records {
			if len(p) == 0 {
				continue
			}
			switch p[0] {
			case 'm':
				var m transcriptMeta
				if err := json.Unmarshal(p[1:], &m); err == nil {
					meta = &m
				}
			case 'a':
				saved = append(saved, len(p) > 1 && p[1] == '1')
			}
		}
		if recov.Damaged() {
			fmt.Fprintf(os.Stderr, "istcli: transcript in %s recovered with damage (%d corrupt record(s), %d quarantined segment(s)); resuming what survived\n",
				*storeDir, recov.CorruptRecords, recov.QuarantinedSegments)
		}
		if meta != nil {
			if meta.Alg != *algName || meta.Dataset != *name || meta.Load != *load ||
				meta.N != *n || meta.D != *d || meta.K != *k {
				fmt.Fprintf(os.Stderr, "istcli: transcript in %s was recorded with different flags (alg=%s dataset=%s n=%d d=%d k=%d); rerun with those or remove the directory\n",
					*storeDir, meta.Alg, meta.Dataset, meta.N, meta.D, meta.K)
				os.Exit(1)
			}
			*seed = meta.Seed
		}
	}

	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(*seed))

	var ds *ist.Dataset
	var err error
	if *load != "" {
		f, ferr := os.Open(*load)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "istcli:", ferr)
			os.Exit(1)
		}
		ds, err = ist.ReadCSV(f, *load)
		f.Close()
		if err == nil {
			ds, err = ist.NormalizeDataset(ds, nil)
		}
	} else {
		ds, err = ist.DatasetByName(*name, rng, *n, *d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "istcli:", err)
		os.Exit(1)
	}
	band := ist.Preprocess(ds.Points, *k)
	fmt.Printf("Dataset %s: %d tuples, %d in the %d-skyband.\n", ds.Name, ds.Size(), len(band), *k)

	var alg ist.Algorithm
	switch *algName {
	case "rh":
		alg = ist.NewRH(*seed)
	case "hdpi":
		alg = ist.NewHDPI(*seed)
	case "hdpi-accurate":
		alg = ist.NewHDPIAccurate(*seed)
	case "2dpi":
		if ds.Dim() != 2 {
			fmt.Fprintln(os.Stderr, "istcli: 2dpi needs a 2-dimensional dataset (try -dataset island)")
			os.Exit(1)
		}
		alg = ist.NewTwoDPI()
	default:
		fmt.Fprintln(os.Stderr, "istcli: unknown algorithm", *algName)
		os.Exit(1)
	}
	var o ist.Oracle
	var hidden ist.Point
	if *simulate {
		hidden = ist.RandomUtility(rng, ds.Dim())
		o = ist.NewUser(hidden)
		fmt.Printf("Simulating a user with hidden utility %v.\n", hidden)
	} else {
		attrs := attrNames[ds.Name]
		o = ist.NewConsoleOracle(os.Stdin, os.Stdout, attrs)
		fmt.Printf("Answer each question with 1 or 2; %s will find one of your top-%d tuples.\n", alg.Name(), *k)
	}

	if tlog != nil {
		fp := ist.Fingerprint(band, *k)
		if meta != nil && meta.Fingerprint != fp {
			fmt.Fprintf(os.Stderr, "istcli: transcript in %s was recorded against different data (fingerprint %x != %x); remove the directory to start over\n",
				*storeDir, meta.Fingerprint, fp)
			os.Exit(1)
		}
		if meta == nil {
			m := transcriptMeta{Alg: *algName, Dataset: *name, Load: *load, N: *n, D: *d, K: *k, Seed: *seed, Fingerprint: fp}
			b, err := json.Marshal(m)
			if err == nil {
				err = tlog.Append(append([]byte{'m'}, b...))
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "istcli:", err)
				os.Exit(1)
			}
		}
		if len(saved) > 0 {
			fmt.Printf("Resuming: replaying %d previously answered question(s) from %s.\n", len(saved), *storeDir)
		}
		o = &persistedOracle{inner: o, log: tlog, saved: saved}
	}

	if *want > 1 {
		var multi ist.MultiAlgorithm
		switch *algName {
		case "rh":
			multi = ist.NewRHMulti(*seed)
		case "hdpi":
			multi = ist.NewHDPIMulti(*seed)
		default:
			fmt.Fprintln(os.Stderr, "istcli: -want > 1 supports only rh and hdpi")
			os.Exit(1)
		}
		if *trace {
			ist.Observe(multi, ist.NewTraceWriter(os.Stderr))
		}
		got := multi.RunMulti(band, *k, *want, o)
		fmt.Printf("\n%s finished after %d questions; %d of your top-%d tuples:\n",
			multi.Name(), o.Questions(), len(got), *k)
		for _, i := range got {
			fmt.Printf("  %v\n", band[i])
		}
		if *simulate {
			allGood := true
			for _, i := range got {
				if !ist.IsTopK(band, hidden, *k, band[i]) {
					allGood = false
				}
			}
			fmt.Printf("Verification: all in the top-%d? %v\n", *k, allGood)
		}
		return
	}

	b := ist.Budget{MaxQuestions: *maxQ}
	if *timeout > 0 {
		b.Deadline = time.Now().Add(*timeout)
	}
	opts := []ist.Option{ist.WithBudget(b)}
	if *trace {
		// Tracing is passive: the question sequence is identical either way.
		opts = append(opts, ist.WithObserver(ist.NewTraceWriter(os.Stderr)))
	}
	res := ist.Solve(alg, band, *k, o, opts...)
	fmt.Printf("\n%s finished after %d questions (%.3fs processing).\n", alg.Name(), res.Questions, res.Duration.Seconds())
	fmt.Printf("Recommended tuple: %v\n", res.Point)
	if c := res.Certificate; c != nil {
		if c.Certified {
			fmt.Printf("Certificate: guaranteed top-%d (stop: %s).\n", *k, c.Reason)
		} else {
			fmt.Printf("Certificate: BEST-EFFORT, not guaranteed top-%d (stop: %s, %d candidates remained).\n",
				*k, c.Reason, c.Candidates)
		}
		for _, dg := range c.Degradations {
			fmt.Printf("  degraded: %s\n", dg)
		}
	}
	if *simulate {
		fmt.Printf("Verification: in top-%d w.r.t. the hidden utility? %v (accuracy %.4f)\n",
			*k, ist.IsTopK(band, hidden, *k, res.Point), ist.Accuracy(band, hidden, *k, res.Point))
	}
	if tlog != nil {
		// The session reached its answer; nothing is left to resume.
		if err := tlog.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "istcli:", err)
		}
		if err := os.RemoveAll(*storeDir); err != nil {
			fmt.Fprintln(os.Stderr, "istcli:", err)
		} else {
			fmt.Printf("Session complete; transcript store %s removed.\n", *storeDir)
		}
	}
}

// transcriptMeta is the first record of a -store-dir transcript: it pins
// everything the replay needs to regenerate the identical question
// sequence — flags, seed, and the dataset fingerprint.
type transcriptMeta struct {
	Alg         string `json:"alg"`
	Dataset     string `json:"dataset"`
	Load        string `json:"load,omitempty"`
	N           int    `json:"n"`
	D           int    `json:"d"`
	K           int    `json:"k"`
	Seed        int64  `json:"seed"`
	Fingerprint uint64 `json:"fingerprint"`
}

// persistedOracle replays the first len(saved) answers of a recovered
// transcript without re-asking the human (the seeded algorithm re-derives
// the same questions), then appends every fresh answer to the WAL —
// fsynced before it is returned, so a crash never costs an answered
// question.
type persistedOracle struct {
	inner ist.Oracle
	log   *wal.Log
	saved []bool
	n     int
}

// Prefer implements ist.Oracle.
func (o *persistedOracle) Prefer(p, q ist.Point) bool {
	o.n++
	if o.n <= len(o.saved) {
		return o.saved[o.n-1]
	}
	ans := o.inner.Prefer(p, q)
	rec := []byte{'a', '0'}
	if ans {
		rec[1] = '1'
	}
	if err := o.log.Append(rec); err != nil {
		fmt.Fprintln(os.Stderr, "istcli: transcript append:", err)
	}
	return ans
}

// Questions implements ist.Oracle, counting replayed and fresh answers
// alike — the human answered all of them, some in an earlier life.
func (o *persistedOracle) Questions() int { return o.n }
