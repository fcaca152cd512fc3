package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/splitexec/splitexec/internal/anneal"
	"github.com/splitexec/splitexec/internal/core"
	"github.com/splitexec/splitexec/internal/des"
	"github.com/splitexec/splitexec/internal/embed"
	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/parallel"
	"github.com/splitexec/splitexec/internal/plan"
	"github.com/splitexec/splitexec/internal/qpuserver"
	"github.com/splitexec/splitexec/internal/qubo"
	"github.com/splitexec/splitexec/internal/router"
	"github.com/splitexec/splitexec/internal/service"
	"github.com/splitexec/splitexec/internal/workload"
)

// samples collects per-call measurements by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// replayJobs bounds how many of a round's jobs the sequential replay
// walks; cubic-maxcut's round is exactly this long, so its replay fills
// the cache as the fabric's did.
const replayJobs = 100

// layerSeed fixes the RNG streams of the replay, so embedding searches
// repeat their exact work counts on every run.
const layerSeed = 1

// replay walks the round's jobs one at a time through the public
// functions of each layer, in the order core.Solver composes them, with a
// span around every call. It warms its embedding cache with warm first,
// as the fabric's set-up did. Every replayed answer is checked by the
// oracle, and a second pass through core.Solver.SolveQUBO supplies the
// solver's own stage timings.
func replay(tr *tracer, warm, jobs []*instance, wantHits bool) (samples, error) {
	if len(jobs) > replayJobs {
		jobs = jobs[:replayJobs]
	}
	cfg := serveConfig()
	reads, err := plannedReads()
	if err != nil {
		return nil, err
	}
	cache := core.NewEmbeddingCache()
	solveCache := core.NewEmbeddingCache()
	solveCfg := cfg
	solveCfg.Cache = solveCache
	buckets := make(map[string]int)
	warmHW := core.NewSolver(cfg).Hardware()
	for k, in := range warm {
		g := qubo.ToIsing(in.qubo()).Graph()
		vm, _, err := embed.FindEmbedding(g, warmHW, rand.New(rand.NewSource(int64(k))), cfg.Embed)
		if err != nil {
			return nil, fmt.Errorf("warm embedding: %w", err)
		}
		cache.Store(g, vm)
		buckets[graph.CanonicalHash(g)]++
		if _, err := core.NewSolver(solveCfg).SolveQUBO(in.qubo()); err != nil {
			return nil, fmt.Errorf("warm solve: %w", err)
		}
	}

	s := samples{}
	isoRNG := rand.New(rand.NewSource(layerSeed))
	for i, in := range jobs {
		q := in.qubo()
		var (
			req     service.SolveRequest
			q2      *qubo.QUBO
			solver  *core.Solver
			logical *qubo.Ising
			g       *graph.Graph
			vm      graph.VertexModel
			em      *embed.Embedded
			set     *anneal.SampleSet
			spins   []int8
			errs    [5]error
		)
		rng := rand.New(rand.NewSource(parallel.DeriveSeed(layerSeed, i)))
		root := tr.begin("job", "", i, 0)
		enc := tr.timed("service.EncodeQUBO", "service", i, root, func() { req = service.EncodeQUBO(q) })
		dec := tr.timed("service.DecodeQUBO", "service", i, root, func() { q2, errs[0] = service.DecodeQUBO(req) })
		sk := tr.timed("router.ShardKey", "router", i, root, func() { _, errs[1] = router.ShardKey(req) })
		if err := errors.Join(errs[:2]...); err != nil {
			return nil, fmt.Errorf("replay job %d: %w", i, err)
		}
		ns := tr.timed("core.NewSolver", "core", i, root, func() { solver = core.NewSolver(cfg) })
		hw := solver.Hardware()
		ti := tr.timed("qubo.ToIsing", "qubo", i, root, func() { logical = qubo.ToIsing(q2) })
		tr.timed("qubo.Ising.Graph", "qubo", i, root, func() { g = logical.Graph() })
		lk := tr.timed("core.EmbeddingCache.Lookup", "core", i, root, func() { vm = cache.Lookup(g) })
		hit := vm != nil
		if hit {
			tr.timed("graph.ValidateMinor", "graph", i, root, func() { errs[2] = graph.ValidateMinor(g, hw, vm, true) })
		} else {
			var st embed.Stats
			fe := tr.timed("embed.FindEmbedding", "embed", i, root, func() { vm, st, errs[2] = embed.FindEmbedding(g, hw, rng, cfg.Embed) })
			s.addEmbed(tr.get(fe).dur(), st)
			tr.timed("core.EmbeddingCache.Store", "core", i, root, func() { cache.Store(g, vm) })
		}
		tr.timed("embed.SetParameters", "embed", i, root, func() { em, errs[3] = embed.SetParameters(logical, vm, hw, 0) })
		if err := errors.Join(errs[2:4]...); err != nil {
			return nil, fmt.Errorf("replay job %d: %w", i, err)
		}
		dev := anneal.NewDevice(cfg.Node.QPU.Timings, cfg.Sampler)
		ex := tr.timed("anneal.Device.Execute", "anneal", i, root, func() {
			dev.Program(em.Model)
			set, errs[4] = dev.Execute(reads, rng)
		})
		if errs[4] != nil {
			return nil, fmt.Errorf("replay job %d: %w", i, errs[4])
		}
		tr.timed("anneal.SampleSet.SortByEnergy", "anneal", i, root, func() { set.SortByEnergy() })
		tr.timed("embed.Embedded.Unembed", "embed", i, root, func() { spins, _ = em.Unembed(set.Best().Spins) })
		tr.end(root)

		// The hash runs inside ShardKey and Lookup; time it on its own and
		// file it as a child of both, so it counts as graph self time.
		h0 := time.Now()
		key := graph.CanonicalHash(g)
		hashDur := time.Since(h0)
		for _, parent := range []int{sk, lk} {
			p := tr.get(parent)
			start := tr.t0.Add(time.Duration(p.Start))
			tr.add("graph.CanonicalHash", "graph", i, parent, start, start.Add(min(hashDur, p.dur())))
		}
		if !hit {
			buckets[key]++
		}
		if wantHits && !hit {
			return nil, fmt.Errorf("replay job %d missed the embedding cache", i)
		}
		if _, err := in.check(binaryOf(qubo.SpinsToBinary(spins)), logical.Energy(spins)); err != nil {
			return nil, fmt.Errorf("replay job %d: %w", i, err)
		}

		var frame bytes.Buffer
		if err := qpuserver.WriteMessage(&frame, req); err != nil {
			return nil, err
		}
		s.add("service.request_bytes", float64(frame.Len()))
		s.add("service.encode_us", us(tr.get(enc).dur()))
		s.add("service.decode_us", us(tr.get(dec).dur()))
		s.add("router.shard_key_us", us(tr.get(sk).dur()))
		s.add("core.new_solver_ms", ms(tr.get(ns).dur()))
		s.add("qubo.to_ising_us", us(tr.get(ti).dur()))
		s.add("core.cache_lookup_ms", ms(tr.get(lk).dur()))
		s.add("graph.canonical_hash_us", us(hashDur))
		exDur := tr.get(ex).dur()
		s.add("anneal.execute_ms", ms(exDur))
		active := 0
		for _, chain := range vm {
			active += len(chain)
		}
		s.add("anneal.ns_per_proposal", float64(exDur.Nanoseconds())/float64(reads*cfg.Sampler.Sweeps*active))

		if hit {
			// The embedding search the cache saved, at the stream a miss
			// would have used, for the embed layer's own figures.
			t0 := time.Now()
			_, st, err := embed.FindEmbedding(g, hw, rand.New(rand.NewSource(parallel.DeriveSeed(layerSeed, i))), cfg.Embed)
			if err != nil {
				return nil, fmt.Errorf("replay job %d: %w", i, err)
			}
			s.addEmbed(time.Since(t0), st)
		}
		if err := s.addIso(g, isoRNG); err != nil {
			return nil, fmt.Errorf("replay job %d: %w", i, err)
		}

		solveCfg.Seed = parallel.DeriveSeed(layerSeed, i)
		sol, err := core.NewSolver(solveCfg).SolveQUBO(q)
		if err != nil {
			return nil, fmt.Errorf("replay job %d: %w", i, err)
		}
		if wantHits && !sol.Timing.CacheHit {
			return nil, fmt.Errorf("replay job %d missed the solver's embedding cache", i)
		}
		if _, err := in.check(binaryOf(sol.Binary), sol.Energy); err != nil {
			return nil, fmt.Errorf("replay job %d: %w", i, err)
		}
		tm := sol.Timing
		s.add("core.embed_search_ms", ms(tm.EmbedSearch))
		s.add("core.set_parameters_us", us(tm.SetParameters))
		s.add("core.translate_us", us(tm.Translate))
		s.add("core.sort_us", us(tm.Sort))
		s.add("core.unembed_us", us(tm.Unembed))
	}
	bucketMax := 0
	for _, n := range buckets {
		bucketMax = max(bucketMax, n)
	}
	s.add("core.cache_bucket_max", float64(bucketMax))
	return s, nil
}

func (s samples) addEmbed(d time.Duration, st embed.Stats) {
	s.add("embed.find_embedding_ms", ms(d))
	s.add("embed.tries", float64(st.Tries))
	s.add("embed.sweeps", float64(st.Sweeps))
	s.add("embed.dijkstra_runs", float64(st.DijkstraRuns))
	s.add("embed.relaxed_edges", float64(st.RelaxedEdges))
}

// addIso times an isomorphism search that must succeed (g against a
// relabelled copy) and one that must fail (g against a degree-preserving
// rewiring of itself that is not isomorphic to it).
func (s samples) addIso(g *graph.Graph, rng *rand.Rand) error {
	t0 := time.Now()
	if graph.FindIsomorphism(g, permuted(g, rng)) == nil {
		return fmt.Errorf("no isomorphism found between a graph and its relabelling")
	}
	s.add("graph.iso_hit_ms", ms(time.Since(t0)))
	if h := doubleSwap(g, rng); h != nil {
		t0 = time.Now()
		if graph.FindIsomorphism(g, h) == nil {
			s.add("graph.iso_refute_ms", ms(time.Since(t0)))
		}
	}
	return nil
}

// binaryOf converts a 0/1 assignment to the wire's byte form.
func binaryOf(b []int8) []byte {
	out := make([]byte, len(b))
	for i, v := range b {
		out[i] = byte(v)
	}
	return out
}

// lineCounter counts the lines written to it: one per simulator event.
type lineCounter struct{ n int }

func (c *lineCounter) Write(p []byte) (int, error) {
	c.n += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

// desLayers measures the DES and the planner on their own: each corpus
// simulation timed alone, then again with an event log counting events,
// and one capacity search.
func desLayers(corpus map[string]*workload.Scenario, s samples) error {
	for _, n := range desScenarios {
		sc := *corpus[n]
		sc.Horizon = workload.Horizon{Jobs: desHorizon}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		r, err := des.Simulate(&sc, des.Options{})
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		s.add("des.ns_per_job", float64(d.Nanoseconds())/float64(r.Admitted))
		s.add("des.alloc_b_per_job", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(r.Admitted))
		var lines lineCounter
		if _, err := des.Simulate(&sc, des.Options{EventLog: &lines}); err != nil {
			return err
		}
		s.add("des.events_per_job", float64(lines.n)/float64(r.Admitted))
	}
	t0 := time.Now()
	p, err := plan.Capacity(corpus[planScenario], planTarget, planSpace, plan.Options{HorizonJobs: planHorizon})
	if err != nil {
		return err
	}
	s.add("plan.candidates", float64(len(p.Evaluated)))
	s.add("plan.ms_per_candidate", ms(time.Since(t0))/float64(len(p.Evaluated)))
	return nil
}
