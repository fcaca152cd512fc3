package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/splitexec/splitexec/internal/anneal"
	"github.com/splitexec/splitexec/internal/parallel"
	"github.com/splitexec/splitexec/internal/qubo"
	"github.com/splitexec/splitexec/internal/service"
)

// fabricWorkload is one traffic mix sent through the solve fabric. A run
// repeats rounds until its time is up; every round starts a fresh fabric
// (empty embedding caches), warms it, and solves the same seeded job list,
// so each round does the same work whatever ran before it.
type fabricWorkload struct {
	name string
	// tail is the latency percentile reported as tail_ms: one that leaves
	// at least ten samples beyond it in every round.
	tail float64
	// gen draws the warm-up instances (solved during set-up, untimed) and
	// the timed jobs of one round.
	gen func(rng *rand.Rand) (warm, jobs []*instance)
}

const (
	sparseRoundJobs = 200
	poolSize        = 8
	poolRoundJobs   = 400
	cubicOrder      = 12
	cubicRoundJobs  = 50
)

var fabricWorkloads = []fabricWorkload{
	{
		name: "fresh-sparse",
		tail: 0.90,
		gen: func(rng *rand.Rand) (warm, jobs []*instance) {
			return []*instance{probeInstance()}, freshSparse(sparseRoundJobs, rng)
		},
	},
	{
		name: "repeat-pool",
		tail: 0.90,
		gen: func(rng *rand.Rand) (warm, jobs []*instance) {
			pool := freshSparse(poolSize, rng)
			for i := 0; i < poolRoundJobs; i++ {
				jobs = append(jobs, relabeled(pool[rng.Intn(poolSize)], rng))
			}
			return pool, jobs
		},
	},
	{
		name: "cubic-maxcut",
		tail: 0.80,
		gen: func(rng *rand.Rand) (warm, jobs []*instance) {
			for i := 0; i < cubicRoundJobs; i++ {
				jobs = append(jobs, weighted(cubicOrder, cubicPairs(cubicOrder, rng), rng))
			}
			return []*instance{probeInstance()}, jobs
		},
	},
}

// probeInstance is the fixed first request of a fresh fabric where the
// workload has no warm-up set: a weighted 8-cycle, whose canonical hash no
// workload input shares.
func probeInstance() *instance {
	in := &instance{n: 8}
	for i := 0; i < 8; i++ {
		in.edges = append(in.edges, edge{u: i, v: (i + 1) % 8, w: 1 + i%3})
	}
	return in
}

// Eq. 6 plans R = ⌈ln(1 − pa) / ln(1 − ps)⌉ reads per solve. With
// core.Config's defaults, pa = 0.99 at an assumed per-read success ps =
// 0.7, that is R = 4 reads and a planned accuracy 1 − 0.3^4 = 0.9919.
const planPa, planPs = 0.99, 0.7

// psFloor is the per-read success probability the optimum check demands.
// Today's solver reaches the optimum in 0.6–0.8 of solves, a per-read
// success of 0.2–0.33 (see README), so a floor from the planned ps = 0.7
// would fail every run; the floor instead holds the solver to the R reads
// it plans at ps ≥ 0.15.
const psFloor = 0.15

// plannedReads is Eq. 6's read count for the solver's defaults.
func plannedReads() (int, error) { return anneal.RequiredReads(planPa, planPs) }

// optimumFloor is the least share of solves that must reach the exact
// optimum: 1 − (1 − psFloor)^R, less four binomial standard deviations at
// n distinct instances. A solver whose reads succeed with probability
// psFloor or more falls below it with probability under 1e-4.
func optimumFloor(n int) (float64, error) {
	reads, err := plannedReads()
	if err != nil {
		return 0, err
	}
	p := 1 - math.Pow(1-psFloor, float64(reads))
	return p - 4*math.Sqrt(p*(1-p)/float64(n)), nil
}

// fabricRun is what the rounds of one run measured.
type fabricRun struct {
	setups    []float64 // seconds, one per set-up
	latencies []float64 // ms, every timed solve
	perRound  []roundStats
	attempted int
	failed    int
	optimal   int
	distinct  int   // distinct instances solved: the jobs of all rounds
	err       error // first oracle failure
}

// roundInputs draws round r's warm-up and job instances from the run's
// seed and solves each job exactly, before anything is timed.
func roundInputs(w fabricWorkload, seed int64, r int) (warm, jobs []*instance) {
	warm, jobs = w.gen(rand.New(rand.NewSource(parallel.DeriveSeed(seed, r))))
	for _, in := range jobs {
		in.bruteForce()
	}
	return warm, jobs
}

// hooks let the traced run watch a round: observe sees every answered
// solve, after sees the fabric once the round's jobs are done.
type hooks struct {
	observe func(i int, start, end time.Time, r service.SolveResponse)
	after   func(f *fabric)
}

// extraSetups is how many set-ups a run times before its first round, on
// top of the one each round does, so the median set-up time is steady.
const extraSetups = 8

// runFabric sets up extraSetups times, then solves rounds until seconds
// have passed, checking every reply against the oracle. Round r solves
// roundInputs(w, seed, r) on a fresh fabric.
func runFabric(w fabricWorkload, seed int64, seconds float64, h hooks) (*fabricRun, error) {
	run := &fabricRun{}
	warm, _ := w.gen(rand.New(rand.NewSource(parallel.DeriveSeed(seed, 0))))
	for i := 0; i < extraSetups; i++ {
		f, err := run.setUp(qubos(warm), hostCal.measure())
		if err != nil {
			return nil, err
		}
		f.close()
	}
	start := time.Now()
	for r := 0; r == 0 || time.Since(start).Seconds() < seconds; r++ {
		warm, jobs := roundInputs(w, seed, r)
		if err := run.round(warm, jobs, w.tail, h); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// setUp starts a fabric and answers its first requests: the warm-up set.
// The time it takes, at the reference speed of a calibration that took
// kernelMS, is one set-up sample.
func (run *fabricRun) setUp(warmQ []*qubo.QUBO, kernelMS float64) (*fabric, error) {
	t0 := time.Now()
	f, err := newFabric()
	if err != nil {
		return nil, err
	}
	for _, q := range warmQ {
		if err := f.solveOne(q); err != nil {
			f.close()
			return nil, err
		}
	}
	run.setups = append(run.setups, atRefTime(time.Since(t0).Seconds(), kernelMS))
	return f, nil
}

func qubos(ins []*instance) []*qubo.QUBO {
	out := make([]*qubo.QUBO, len(ins))
	for i, in := range ins {
		out[i] = in.qubo()
	}
	return out
}

func (run *fabricRun) round(warm, jobs []*instance, tail float64, h hooks) error {
	kernelMS := hostCal.measure()
	f, err := run.setUp(qubos(warm), kernelMS)
	if err != nil {
		return err
	}
	defer f.close()
	jobQ := qubos(jobs)
	run.distinct += len(jobs)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w0 := time.Now()
	replies := f.solveAll(jobQ, h.observe)
	window := time.Since(w0)
	runtime.ReadMemStats(&m1)
	if h.after != nil {
		h.after(f)
	}

	var lat []float64
	for i, r := range replies {
		run.attempted++
		if r.err != nil {
			run.failed++
			continue
		}
		lat = append(lat, ms(r.latency))
		optimal, err := jobs[i].check(r.resp.Binary, r.resp.Energy)
		if err != nil && run.err == nil {
			run.err = fmt.Errorf("job %d: %w", i, err)
		}
		if optimal {
			run.optimal++
		}
	}
	run.latencies = append(run.latencies, lat...)
	run.perRound = append(run.perRound, roundStats{
		jobsPerS: float64(len(lat)) / window.Seconds(),
		p50:      median(lat),
		tail:     quantile(lat, tail),
		allocKB:  float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(max(len(lat), 1)),
		kernelMS: kernelMS,
	})
	return nil
}

// metrics turns the run into the end-to-end metrics (see endToEnd). A
// round's cost depends on its input set: on cubic-maxcut heavily on a few
// slow isomorphism refutations, on repeat-pool on how many pool graphs the
// ring sends to the busier shard. The middle half of the rounds keeps one
// unlucky set from moving the run's figure.
func (run *fabricRun) metrics() map[string]metric { return endToEnd(run.perRound, run.setups) }
