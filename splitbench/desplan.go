package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"github.com/splitexec/splitexec/internal/des"
	"github.com/splitexec/splitexec/internal/parallel"
	"github.com/splitexec/splitexec/internal/plan"
	"github.com/splitexec/splitexec/internal/sched"
	"github.com/splitexec/splitexec/internal/workload"
)

// plan-des replays what `splitexec simulate` and `splitexec plan` do: DES
// runs of corpus scenarios and a capacity search, with no live service.
const (
	corpusDir = "scenarios"
	// desHorizon is the job horizon of each corpus simulation.
	desHorizon = 20000
	// planHorizon is the horizon of each capacity-search simulation.
	planHorizon  = 5000
	planScenario = "shard-loss"
)

// desScenarios are the simulated corpus entries: faults, a shard cluster
// with a shard loss, and scheduled membership changes.
var desScenarios = []string{"kitchen-sink", "shard-loss", "scale-out"}

var (
	planTarget = plan.Target{P99Sojourn: 40 * time.Millisecond}
	planSpace  = plan.Space{
		Hosts:    []int{1, 2, 3, 4, 5, 6, 7, 8},
		Policies: []sched.Policy{sched.FIFO, sched.ShortestQPU, sched.FairShare},
		Shards:   []int{1, 2, 3},
	}
)

// loadCorpus decodes and validates every scenario file of the corpus.
func loadCorpus() (map[string]*workload.Scenario, error) {
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no scenarios under %s/", corpusDir)
	}
	out := make(map[string]*workload.Scenario, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		sc, err := workload.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out[sc.Name] = sc
	}
	return out, nil
}

// desRun is what the rounds of one plan-des run measured.
type desRun struct {
	setups    []float64
	queries   []time.Duration // wall time of each simulate or plan query
	perRound  []roundStats
	attempted int
	err       error
	// first round's results, for the determinism check
	firstSims []*des.Result
	firstPlan *plan.Plan
}

// desSetup decodes and validates the corpus and answers the first query:
// the first workload scenario at the benchmark horizon.
func desSetup(seed int64) (sims []*workload.Scenario, planSc *workload.Scenario, secs float64, err error) {
	t0 := time.Now()
	corpus, err := loadCorpus()
	if err != nil {
		return nil, nil, 0, err
	}
	for i, n := range desScenarios {
		sc, ok := corpus[n]
		if !ok {
			return nil, nil, 0, fmt.Errorf("corpus has no scenario %q", n)
		}
		c := *sc
		c.Horizon = workload.Horizon{Jobs: desHorizon}
		c.Seed = parallel.DeriveSeed(seed, i)
		sims = append(sims, &c)
	}
	sc, ok := corpus[planScenario]
	if !ok {
		return nil, nil, 0, fmt.Errorf("corpus has no scenario %q", planScenario)
	}
	p := *sc
	p.Seed = parallel.DeriveSeed(seed, len(sims))
	if _, err := des.Simulate(sims[0], des.Options{}); err != nil {
		return nil, nil, 0, err
	}
	return sims, &p, time.Since(t0).Seconds(), nil
}

// desSetups is how many times a run sets up, for a median set-up time.
const desSetups = 9

// runDES answers rounds of queries until seconds have passed; with a
// tracer, each query gets a span.
func runDES(seed int64, seconds float64, tr *tracer) (*desRun, error) {
	run := &desRun{err: checkMMc(seed)}
	var sims []*workload.Scenario
	var planSc *workload.Scenario
	for i := 0; i < desSetups; i++ {
		var secs float64
		var err error
		kernelMS := hostCal.measure()
		sims, planSc, secs, err = desSetup(seed)
		if err != nil {
			return nil, err
		}
		run.setups = append(run.setups, atRefTime(secs, kernelMS))
	}

	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < seconds; round++ {
		kernelMS := hostCal.measure()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		w0 := time.Now()
		var results []*des.Result
		for _, sc := range sims {
			t := time.Now()
			r, err := des.Simulate(sc, des.Options{})
			if err != nil {
				return nil, err
			}
			end := time.Now()
			if tr != nil {
				tr.add("des.Simulate", "des", len(run.queries), 0, t, end)
			}
			run.queries = append(run.queries, end.Sub(t))
			results = append(results, r)
		}
		t := time.Now()
		p, err := plan.Capacity(planSc, planTarget, planSpace, plan.Options{HorizonJobs: planHorizon})
		if err != nil {
			return nil, err
		}
		end := time.Now()
		if tr != nil {
			tr.add("plan.Capacity", "plan", len(run.queries), 0, t, end)
		}
		run.queries = append(run.queries, end.Sub(t))
		window := time.Since(w0)
		runtime.ReadMemStats(&m1)
		jobs := planJobs(p)
		for _, r := range results {
			jobs += r.Admitted
		}
		lat := make([]float64, 0, len(sims)+1)
		for _, q := range run.queries[len(run.queries)-len(sims)-1:] {
			lat = append(lat, ms(q))
		}
		run.perRound = append(run.perRound, roundStats{
			jobsPerS: float64(jobs) / window.Seconds(),
			p50:      median(lat),
			tail:     quantile(lat, 0.90),
			allocKB:  float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(jobs),
			kernelMS: kernelMS,
		})
		run.attempted += len(sims) + 1
		if err := run.check(round, results, p); err != nil && run.err == nil {
			run.err = err
		}
	}
	return run, nil
}

// planJobs counts the jobs the capacity search simulated.
func planJobs(p *plan.Plan) int {
	n := 0
	for _, c := range p.Evaluated {
		if c.Result != nil {
			n += c.Result.Admitted
		}
	}
	return n
}

// check applies the plan-des output checks to one round.
func (run *desRun) check(round int, results []*des.Result, p *plan.Plan) error {
	for i, r := range results {
		if r.Jobs+r.Failed != r.Admitted {
			return fmt.Errorf("%s: jobs %d + failed %d != admitted %d", desScenarios[i], r.Jobs, r.Failed, r.Admitted)
		}
		if r.Admitted != desHorizon {
			return fmt.Errorf("%s: admitted %d jobs, horizon is %d", desScenarios[i], r.Admitted, desHorizon)
		}
	}
	if p.Best == nil || !p.Best.Meets {
		return fmt.Errorf("capacity plan has no best candidate meeting the target")
	}
	if got := p.Best.Result.Sojourn.P99; got > planTarget.P99Sojourn {
		return fmt.Errorf("best candidate's p99 %v exceeds the target %v", got, planTarget.P99Sojourn)
	}
	if p.NextCheaper == nil || p.NextCheaper.Meets || p.NextCheaper.Result.Sojourn.P99 <= planTarget.P99Sojourn {
		return fmt.Errorf("capacity plan has no next-cheaper candidate failing the target")
	}
	if p.NextCheaper.Cost >= p.Best.Cost {
		return fmt.Errorf("next-cheaper candidate costs %v, best costs %v", p.NextCheaper.Cost, p.Best.Cost)
	}
	// Determinism: every later round repeats the first one exactly.
	if round == 0 {
		run.firstSims, run.firstPlan = results, p
		return nil
	}
	for i, r := range results {
		if !reflect.DeepEqual(r, run.firstSims[i]) {
			return fmt.Errorf("%s: two simulations of the same scenario and seed differ", desScenarios[i])
		}
	}
	if !reflect.DeepEqual(p, run.firstPlan) {
		return fmt.Errorf("two capacity searches of the same scenario differ")
	}
	return nil
}

// M/M/c cross-check: Poisson arrivals at rate λ, one exponential job class
// of mean 1/μ, c dedicated hosts that never contend for a QPU.
const (
	mmcServers   = 2
	mmcMu        = 1000.0 // per host, jobs/s: a 1 ms mean job
	mmcRho       = 0.7
	mmcJobs      = 200000
	mmcTolerance = 0.03 // relative; the sampling error at this horizon is ~1%
)

// checkMMc simulates the M/M/c scenario and compares its mean sojourn with
// the benchmark's own Erlang-C value.
func checkMMc(seed int64) error {
	lambda := mmcRho * mmcServers * mmcMu
	sc := &workload.Scenario{
		Name:    "mmc",
		Seed:    seed,
		Arrival: workload.Arrival{Kind: workload.Poisson, Rate: lambda},
		Mix: []workload.JobClass{{
			Name: "exp", Weight: 1, Dist: workload.Exponential,
			Profile: workload.Profile{
				PreProcess:  workload.Duration(500 * time.Microsecond),
				QPUService:  workload.Duration(300 * time.Microsecond),
				PostProcess: workload.Duration(200 * time.Microsecond),
			},
		}},
		System:  workload.SystemSpec{Kind: "dedicated", Hosts: mmcServers},
		Horizon: workload.Horizon{Jobs: mmcJobs},
	}
	r, err := des.Simulate(sc, des.Options{})
	if err != nil {
		return err
	}
	want := mmcSojourn(lambda, mmcMu, mmcServers)
	got := r.Sojourn.Mean.Seconds()
	if rel := math.Abs(got-want) / want; rel > mmcTolerance {
		return fmt.Errorf("M/M/%d mean sojourn %.6fs, Erlang-C %.6fs (off by %.1f%%, tolerance %.0f%%)",
			mmcServers, got, want, 100*rel, 100*mmcTolerance)
	}
	return nil
}

// metrics turns the run into the end-to-end metrics (see endToEnd). A
// round's p90 query is its capacity search, one query in four.
func (run *desRun) metrics() map[string]metric { return endToEnd(run.perRound, run.setups) }
