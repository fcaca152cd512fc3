package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatRuns runs the workload k times, each in a fresh process (peak
// memory and caches are per process) with seeds seed, seed+1, ..., and
// prints each metric's median, quartiles, range and quartile spread as a
// share of the median: the figures the bounds in BENCHMARK.json are set
// from.
func repeatRuns(name string, seed int64, seconds float64, trace, k int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failedShares []string
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: reading result: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: run reported wrong output", s)
		}
		failedShares = append(failedShares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		for n, m := range res.Metrics {
			values[n] = append(values[n], m.Value)
			units[n] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "splitbench: run %d/%d (seed %d) done\n", i+1, k, s)
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %12s %12s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, n := range names {
		v := append([]float64(nil), values[n]...)
		sort.Float64s(v)
		q1, q2, q3 := quartiles(v)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Printf("%-34s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f  %s\n", n, q2, q1, q3, v[0], v[len(v)-1], spread, units[n])
	}
	fmt.Printf("failed/attempted per run: %s\n", strings.Join(failedShares, " "))
	return nil
}

// quartiles returns the three cut points of sorted xs by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so the
// spreads printed here are the ones a Python check computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) == 1 {
		return xs[0], xs[0], xs[0]
	}
	m := len(xs) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(xs)-1)
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
