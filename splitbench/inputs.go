package main

import (
	"fmt"
	"math/rand"

	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/qubo"
)

// edge is one weighted edge of a MaxCut instance.
type edge struct{ u, v, w int }

// instance is the benchmark's own copy of a MaxCut problem: the oracle
// computes energies and cut values from it, never from the program's QUBO.
type instance struct {
	n     int
	edges []edge
	// opt is the exact optimum QUBO energy (minus the maximum cut weight),
	// filled by bruteForce before any timing starts.
	opt int
}

// graph returns the unweighted problem graph.
func (in *instance) graph() *graph.Graph {
	g := graph.New(in.n)
	for _, e := range in.edges {
		g.AddEdge(e.u, e.v)
	}
	return g
}

// qubo builds the program's MaxCut QUBO for the instance.
func (in *instance) qubo() *qubo.QUBO {
	w := make(map[[2]int]float64, len(in.edges))
	for _, e := range in.edges {
		w[[2]int{e.u, e.v}] = float64(e.w)
		w[[2]int{e.v, e.u}] = float64(e.w)
	}
	return qubo.MaxCut(in.graph(), func(u, v int) float64 { return w[[2]int{u, v}] })
}

// Weights are uniform random integers in [1, maxWeight].
const maxWeight = 7

func weighted(n int, pairs [][2]int, rng *rand.Rand) *instance {
	in := &instance{n: n}
	for _, p := range pairs {
		in.edges = append(in.edges, edge{u: p[0], v: p[1], w: 1 + rng.Intn(maxWeight)})
	}
	return in
}

// sparsePairs draws a sparse, irregular connected graph on n vertices: a
// random spanning tree (each vertex of a random order attaches to an
// earlier one) plus extra distinct chords.
func sparsePairs(n, extra int, rng *rand.Rand) [][2]int {
	perm := rng.Perm(n)
	seen := make(map[[2]int]bool)
	var pairs [][2]int
	add := func(u, v int) bool {
		if u == v {
			return false
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			return false
		}
		seen[[2]int{u, v}] = true
		pairs = append(pairs, [2]int{u, v})
		return true
	}
	for i := 1; i < n; i++ {
		add(perm[i], perm[rng.Intn(i)])
	}
	for added := 0; added < extra; {
		if add(rng.Intn(n), rng.Intn(n)) {
			added++
		}
	}
	return pairs
}

// chimeraDegree is the coupler count of one Chimera qubit.
const chimeraDegree = 6

// freshSparse returns count sparse irregular instances on 10–16 vertices
// with pairwise distinct canonical hashes, so every one misses the
// embedding cache. Regular graphs are rejected, and so are graphs with a
// vertex of degree above chimeraDegree: on such hubs the CMR search fails
// all of its tries now and then (see README), and a benchmark input must
// not fail.
func freshSparse(count int, rng *rand.Rand) []*instance {
	seen := make(map[string]bool)
	var out []*instance
	for len(out) < count {
		n := 10 + rng.Intn(7)
		in := weighted(n, sparsePairs(n, 1+rng.Intn(4), rng), rng)
		g := in.graph()
		if isRegular(g) || g.MaxDegree() > chimeraDegree {
			continue
		}
		key := graph.CanonicalHash(g)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, in)
	}
	return out
}

func isRegular(g *graph.Graph) bool {
	for v := 1; v < g.Order(); v++ {
		if g.Degree(v) != g.Degree(0) {
			return false
		}
	}
	return true
}

// relabeled returns a copy of in's graph under a random vertex permutation
// with freshly drawn weights: isomorphic to in, so it hits the cache.
func relabeled(in *instance, rng *rand.Rand) *instance {
	perm := rng.Perm(in.n)
	pairs := make([][2]int, len(in.edges))
	for i, e := range in.edges {
		pairs[i] = [2]int{perm[e.u], perm[e.v]}
	}
	return weighted(in.n, pairs, rng)
}

// cubicPairs draws a uniformly random labelled simple 3-regular graph on n
// vertices (n even) by the pairing model: match 3n half-edges uniformly at
// random and reject matchings with loops or repeated edges.
func cubicPairs(n int, rng *rand.Rand) [][2]int {
	if n%2 != 0 || n < 4 {
		panic(fmt.Sprintf("cubicPairs: no 3-regular graph on %d vertices", n))
	}
	points := make([]int, 3*n)
	for {
		for i := range points {
			points[i] = i / 3
		}
		rng.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
		seen := make(map[[2]int]bool)
		var pairs [][2]int
		ok := true
		for i := 0; i < len(points) && ok; i += 2 {
			u, v := points[i], points[i+1]
			if u > v {
				u, v = v, u
			}
			ok = u != v && !seen[[2]int{u, v}]
			seen[[2]int{u, v}] = true
			pairs = append(pairs, [2]int{u, v})
		}
		if ok {
			return pairs
		}
	}
}

// doubleSwap returns a copy of g with one degree-preserving double-edge swap
// ({a,b},{c,d} -> {a,d},{c,b}) that keeps the graph simple, or nil if none
// of the tried swaps applies. The result has g's degree sequence, so an
// isomorphism search cannot refute it by degrees alone.
func doubleSwap(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	es := g.Edges()
	for try := 0; try < 64 && len(es) >= 2; try++ {
		e1, e2 := es[rng.Intn(len(es))], es[rng.Intn(len(es))]
		a, b, c, d := e1.U, e1.V, e2.U, e2.V
		if a == c || a == d || b == c || b == d || g.HasEdge(a, d) || g.HasEdge(c, b) {
			continue
		}
		h := g.Clone()
		h.RemoveEdge(a, b)
		h.RemoveEdge(c, d)
		h.AddEdge(a, d)
		h.AddEdge(c, b)
		return h
	}
	return nil
}

// permuted returns g under a random vertex permutation.
func permuted(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	perm := rng.Perm(g.Order())
	h := graph.New(g.Order())
	for _, e := range g.Edges() {
		h.AddEdge(perm[e.U], perm[e.V])
	}
	return h
}
