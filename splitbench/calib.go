package main

import (
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// Host-speed calibration. The reference host shares its cores with other
// tenants. Their load slows every piece of work in the process alike, by
// 10–40%, over stretches of seconds to minutes: more than the regressions
// the bounds in BENCHMARK.json are meant to catch, and too slow for any
// within-run statistic to average away. So each timed round (and each
// set-up) is preceded by a fixed calibration kernel of the benchmark's own
// code, and its time figures are scaled by the kernel's reference time over
// the kernel's time just measured: a figure reads as it would have on the
// reference host with the kernel at refKernelMS. A change to the program
// moves the round, not the kernel, so it moves the scaled figure alike.
//
// The kernel runs with the fabric closed and after a forced garbage
// collection, and allocates nothing, so nothing the program leaves behind
// runs beside it.

// refKernelMS is the kernel's typical time on the reference host (a 2-vCPU
// Xeon VM at 2.1 GHz, go1.24); it only sets the scale of the figures.
const refKernelMS = 7.0

// kernelReps is how many times one calibration runs the kernel; it reports
// the median, so one preempted repetition does not move it.
const kernelReps = 3

// calibrator holds the kernel's fixed data: a single random cycle through
// a 1 MiB table to chase (memory latency), values to sort (branchy
// compute) and an open-addressing hash table to fill (random writes), the
// mix of work CMR, annealing and the DES do.
type calibrator struct {
	next  []uint32
	vals  []uint64
	work  []uint64
	table []uint64
	sink  uint64
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{
		next:  make([]uint32, 1<<18),
		vals:  make([]uint64, 1<<15),
		work:  make([]uint64, 1<<15),
		table: make([]uint64, 1<<16),
	}
	// Sattolo's algorithm: a uniformly random permutation that is one cycle.
	for i := range c.next {
		c.next[i] = uint32(i)
	}
	for i := len(c.next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	for i := range c.vals {
		c.vals[i] = rng.Uint64()
	}
	return c
}

// kernel runs the fixed work once and returns its wall time.
func (c *calibrator) kernel() time.Duration {
	t0 := time.Now()
	x := uint32(0)
	for range c.next {
		x = c.next[x]
	}
	copy(c.work, c.vals)
	slices.Sort(c.work)
	clear(c.table)
	mask := uint64(len(c.table) - 1)
	for _, v := range c.vals {
		h := (v * 0x9E3779B97F4A7C15) >> 40
		for c.table[h&mask] != 0 {
			h++
		}
		c.table[h&mask] = v | 1
	}
	f := 0.0
	for i, v := range c.work {
		f += float64(v>>40) * float64(i&7)
	}
	c.sink += uint64(x) + uint64(f)
	return time.Since(t0)
}

// measure returns the kernel's median time in ms over kernelReps runs.
func (c *calibrator) measure() float64 {
	runtime.GC()
	ks := make([]float64, kernelReps)
	for i := range ks {
		ks[i] = ms(c.kernel())
	}
	return median(ks)
}

// hostCal is the process's calibrator.
var hostCal = newCalibrator()

// atRefTime scales a duration measured when the kernel took kernelMS to the
// reference host's speed; atRefRate does the same for a rate.
func atRefTime(x, kernelMS float64) float64 { return x * refKernelMS / kernelMS }
func atRefRate(x, kernelMS float64) float64 { return x * kernelMS / refKernelMS }
