package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqMean is the interquartile mean: the mean of the values between the
// first and third quartiles (the middle half, at least one value). It
// ignores heavy tails like a median but, unlike a median, averages over
// values that fall into two modes instead of jumping between them.
func iqMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	return mean(s[lo:hi])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// roundStats are one round's end-to-end figures, as measured, and the
// calibration kernel's time just before the round.
type roundStats struct {
	jobsPerS, p50, tail, allocKB float64
	kernelMS                     float64
}

// endToEnd turns a run's rounds and set-up times (already scaled) into the
// end-to-end metrics: for each figure, the interquartile mean over the
// rounds, time figures at the reference speed (see calib.go).
func endToEnd(rounds []roundStats, setups []float64) map[string]metric {
	pick := func(f func(roundStats) float64) float64 {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = f(r)
		}
		return iqMean(xs)
	}
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"jobs_per_s":       {pick(func(r roundStats) float64 { return atRefRate(r.jobsPerS, r.kernelMS) }), "1/s"},
		"p50_ms":           {pick(func(r roundStats) float64 { return atRefTime(r.p50, r.kernelMS) }), "ms"},
		"tail_ms":          {pick(func(r roundStats) float64 { return atRefTime(r.tail, r.kernelMS) }), "ms"},
		"alloc_kb_per_job": {pick(func(r roundStats) float64 { return r.allocKB }), "KB"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
	}
}

// unscaled describes a run's throughput and median latency as measured,
// and its median kernel time, for the log.
func unscaled(rounds []roundStats) string {
	var jps, p50, kernel []float64
	for _, r := range rounds {
		jps = append(jps, r.jobsPerS)
		p50 = append(p50, r.p50)
		kernel = append(kernel, r.kernelMS)
	}
	return fmt.Sprintf("as measured: jobs_per_s %.4g, p50_ms %.4g; calibration kernel %.4g ms (reference %.4g ms)",
		iqMean(jps), iqMean(p50), median(kernel), refKernelMS)
}
