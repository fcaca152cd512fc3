package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/splitexec/splitexec/internal/service"
)

// traceDir is where a traced run writes its spans, inside the checkout.
const traceDir = ".bench_build/splitbench-traces"

// The traced run: a third of the time untraced, a third traced (so the
// difference is the tracing overhead), then the sequential layer replay
// and the DES and planner probes. Layers a workload does not reach are
// measured on reference inputs: plan-des replays a fresh-sparse round for
// the fabric layers, and every workload probes the DES and the planner on
// the corpus.

// layerMetrics lists every per-layer metric with its unit, in the order
// they are reported.
var layerMetrics = []struct{ name, unit string }{
	{"router.shard_key_us", "us"},
	{"router.overhead_ms", "ms"},
	{"router.dispatch_share_max", "share"},
	{"service.queue_wait_ms", "ms"},
	{"service.stage1_ms", "ms"},
	{"service.stage3_ms", "ms"},
	{"service.encode_us", "us"},
	{"service.decode_us", "us"},
	{"service.request_bytes", "B"},
	{"core.new_solver_ms", "ms"},
	{"core.embed_search_ms", "ms"},
	{"core.set_parameters_us", "us"},
	{"core.translate_us", "us"},
	{"core.sort_us", "us"},
	{"core.unembed_us", "us"},
	{"core.cache_lookup_ms", "ms"},
	{"core.cache_hits", "count"},
	{"core.cache_misses", "count"},
	{"core.cache_bucket_max", "count"},
	{"core.optimal_share", "share"},
	{"embed.find_embedding_ms", "ms"},
	{"embed.tries", "count"},
	{"embed.sweeps", "count"},
	{"embed.dijkstra_runs", "count"},
	{"embed.relaxed_edges", "count"},
	{"graph.canonical_hash_us", "us"},
	{"graph.iso_hit_ms", "ms"},
	{"graph.iso_refute_ms", "ms"},
	{"anneal.execute_ms", "ms"},
	{"anneal.ns_per_proposal", "ns"},
	{"qubo.to_ising_us", "us"},
	{"des.ns_per_job", "ns"},
	{"des.alloc_b_per_job", "B"},
	{"des.events_per_job", "count"},
	{"plan.candidates", "count"},
	{"plan.ms_per_candidate", "ms"},
	{"trace.overhead_pct", "%"},
}

// replayLayers are the layers of the replayed job; each gets a self time
// and a share of the job.
var replayLayers = []string{"router", "service", "core", "qubo", "graph", "embed", "anneal"}

// replayCalls are the calls the replay spans; each gets a share of the job.
var replayCalls = []string{
	"service.EncodeQUBO", "service.DecodeQUBO", "router.ShardKey",
	"core.NewSolver", "qubo.ToIsing", "qubo.Ising.Graph",
	"core.EmbeddingCache.Lookup", "graph.CanonicalHash", "graph.ValidateMinor",
	"embed.FindEmbedding", "core.EmbeddingCache.Store", "embed.SetParameters",
	"anneal.Device.Execute", "anneal.SampleSet.SortByEnergy", "embed.Embedded.Unembed",
}

// fabricLayers runs the fabric half of a traced run: untraced rounds,
// traced rounds (one span per Client.Solve, children from the response's
// queue and solve times), then the replay. It returns the per-layer
// samples, the two runs and the overhead in percent of the untraced p50.
func fabricLayers(tr *tracer, w fabricWorkload, seed int64, seconds float64) (samples, []*fabricRun, float64, error) {
	plain, err := runFabric(w, seed, seconds/3, hooks{})
	if err != nil {
		return nil, nil, 0, err
	}
	s := samples{}
	var mu sync.Mutex // observe runs on both client goroutines
	var dispatched []int64
	var hits, misses int
	round := 0
	traced, err := runFabric(w, seed, seconds/3, hooks{
		observe: func(i int, start, end time.Time, r service.SolveResponse) {
			job := round<<20 | i
			queue := time.Duration(r.QueueWaitUS) * time.Microsecond
			solve := time.Duration(r.TotalUS)*time.Microsecond - queue
			root := tr.add("service.Client.Solve", "", job, 0, start, end)
			tr.add("service.queue_wait", "service", job, root, start, start.Add(queue))
			tr.add("service.solve", "service", job, root, start.Add(queue), start.Add(queue+solve))
			tr.add("router.overhead", "router", job, root, start.Add(queue+solve), end)
			mu.Lock()
			defer mu.Unlock()
			s.add("service.queue_wait_ms", ms(queue))
			s.add("router.overhead_ms", ms(end.Sub(start)-queue-solve))
			s.add("service.stage1_ms", float64(r.Stage1US)/1000)
			s.add("service.stage3_ms", float64(r.Stage3US)/1000)
		},
		after: func(f *fabric) {
			round++
			st := f.rt.Stats()
			if dispatched == nil {
				dispatched = make([]int64, len(st.Dispatched))
			}
			for i, d := range st.Dispatched {
				dispatched[i] += d
			}
			for _, c := range f.caches {
				h, m := c.Stats()
				hits += h
				misses += m
			}
		},
	})
	if err != nil {
		return nil, nil, 0, err
	}
	total, most := int64(0), int64(0)
	for _, d := range dispatched {
		total += d
		most = max(most, d)
	}
	s.add("router.dispatch_share_max", float64(most)/float64(max(total, 1)))
	s.add("core.cache_hits", float64(hits)/float64(round))
	s.add("core.cache_misses", float64(misses)/float64(round))
	s.add("core.optimal_share", float64(plain.optimal+traced.optimal)/float64(len(plain.latencies)+len(traced.latencies)))

	warm, jobs := roundInputs(w, seed, 0)
	rs, err := replay(tr, warm, jobs, w.name == "repeat-pool")
	if err != nil {
		return nil, nil, 0, err
	}
	for k, v := range rs {
		s[k] = append(s[k], v...)
	}
	p50u, p50t := plain.metrics()["p50_ms"].Value, traced.metrics()["p50_ms"].Value
	return s, []*fabricRun{plain, traced}, 100 * (p50t - p50u) / p50u, nil
}

// runTraced performs the traced run of a workload.
func runTraced(name string, seed int64, seconds float64) (*result, error) {
	tr := newTracer()
	res := &result{Correct: true, Metrics: map[string]metric{}}
	fabricName, fabricSeconds := name, seconds
	var overhead float64
	if name == "plan-des" {
		runs, ov, err := desTraced(tr, seed, seconds*2/3)
		if err != nil {
			return nil, err
		}
		overhead = ov
		for _, r := range runs {
			res.Attempted += r.attempted
			if r.err != nil {
				fmt.Fprintln(os.Stderr, "splitbench: wrong output:", r.err)
				res.Correct = false
			}
		}
		// The fabric layers are measured on a short fresh-sparse reference.
		fabricName, fabricSeconds = "fresh-sparse", 3
	}
	w, ok := fabricByName(fabricName)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	s, runs, ov, err := fabricLayers(tr, w, seed, fabricSeconds)
	if err != nil {
		return nil, err
	}
	if name != "plan-des" {
		overhead = ov
	}
	for _, r := range runs {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if !fabricCorrect(r) {
			res.Correct = false
		}
	}
	corpus, err := loadCorpus()
	if err != nil {
		return nil, err
	}
	if err := desLayers(corpus, s); err != nil {
		return nil, err
	}
	s.add("trace.overhead_pct", overhead)

	b := tr.selfTimes("job")
	for _, m := range layerMetrics {
		v, ok := s[m.name]
		if !ok {
			return nil, fmt.Errorf("traced run measured no %s", m.name)
		}
		res.Metrics[m.name] = metric{mean(v), m.unit}
	}
	for _, l := range replayLayers {
		self := b.layerSelf[l]
		res.Metrics[l+".self_ms"] = metric{ms(self) / float64(b.jobs), "ms"}
		res.Metrics[l+".share"] = metric{float64(self) / float64(b.total), "share"}
	}
	for _, c := range replayCalls {
		res.Metrics["share."+c] = metric{float64(b.callSelf[c]) / float64(b.total), "share"}
	}
	fmt.Fprintf(os.Stderr, "splitbench: largest self-time call of a replayed job: %s\n", b.largestCall())
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "splitbench: wrote %d spans to %s\n", len(tr.spans), path)
	return res, nil
}

func fabricByName(name string) (fabricWorkload, bool) {
	for _, w := range fabricWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return fabricWorkload{}, false
}

// desTraced runs plan-des rounds untraced, then traced with one span per
// query, and reports the runs and the tracing overhead.
func desTraced(tr *tracer, seed int64, seconds float64) ([]*desRun, float64, error) {
	plain, err := runDES(seed, seconds/2, nil)
	if err != nil {
		return nil, 0, err
	}
	traced, err := runDES(seed, seconds/2, tr)
	if err != nil {
		return nil, 0, err
	}
	p50u, p50t := plain.metrics()["p50_ms"].Value, traced.metrics()["p50_ms"].Value
	return []*desRun{plain, traced}, 100 * (p50t - p50u) / p50u, nil
}
