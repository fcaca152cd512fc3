// Command splitbench is the repository benchmark: it runs one named
// workload against the public API of the solve fabric (shards, router,
// wire clients) or of the DES and the planner, checks every output against
// computations of its own, and prints the end-to-end metrics, or with
// -trace 1 the per-layer metrics, as the last line of standard output:
//
//	go run ./splitbench -workload fresh-sparse -seed 1 -seconds 30 -trace 0
//
// -repeat K runs the workload K times, each in a fresh process with seeds
// seed, seed+1, ..., and prints each metric's median, quartiles and range.
// See splitbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: fresh-sparse, repeat-pool, cubic-maxcut or plan-des")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	repeat := flag.Int("repeat", 0, "run the workload this many times in fresh processes and summarize")
	flag.Parse()

	if *repeat > 0 {
		if err := repeatRuns(*workload, *seed, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "splitbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runWorkload(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func runWorkload(name string, seed int64, seconds float64, traced bool) (*result, error) {
	if traced {
		return runTraced(name, seed, seconds)
	}
	if name == "plan-des" {
		run, err := runDES(seed, seconds, nil)
		if err != nil {
			return nil, err
		}
		if run.err != nil {
			fmt.Fprintln(os.Stderr, "splitbench: wrong output:", run.err)
		}
		fmt.Fprintln(os.Stderr, "splitbench:", unscaled(run.perRound))
		return &result{Correct: run.err == nil, Attempted: run.attempted, Metrics: run.metrics()}, nil
	}
	w, ok := fabricByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	run, err := runFabric(w, seed, seconds, hooks{})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "splitbench:", unscaled(run.perRound))
	return &result{
		Correct:   fabricCorrect(run),
		Attempted: run.attempted,
		Failed:    run.failed,
		Metrics:   run.metrics(),
	}, nil
}

// fabricCorrect reports whether every reply passed the oracle and enough
// solves reached the exact optimum.
func fabricCorrect(run *fabricRun) bool {
	if run.err != nil {
		fmt.Fprintln(os.Stderr, "splitbench: wrong output:", run.err)
		return false
	}
	solved := run.attempted - run.failed
	floor, err := optimumFloor(run.distinct)
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitbench:", err)
		return false
	}
	reads, err := plannedReads()
	if err != nil {
		fmt.Fprintln(os.Stderr, "splitbench:", err)
		return false
	}
	share := float64(run.optimal) / float64(max(solved, 1))
	fmt.Fprintf(os.Stderr, "splitbench: %d of %d solves reached the exact optimum (%.4f; floor %.4f, Eq. 6 plans %.4f)\n",
		run.optimal, solved, share, floor, 1-math.Pow(1-planPs, float64(reads)))
	return share >= floor
}
