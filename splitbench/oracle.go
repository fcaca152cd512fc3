package main

import (
	"fmt"
	"math"
	"math/bits"
)

// The oracle works only from the benchmark's own instance copy: it shares
// no code with the program under test.

// energy is the MaxCut QUBO energy Σ w·(2·b_u·b_v − b_u − b_v) of a 0/1
// assignment: minus the weight of the cut it defines.
func (in *instance) energy(b []byte) int {
	e := 0
	for _, ed := range in.edges {
		bu, bv := int(b[ed.u]), int(b[ed.v])
		e += ed.w * (2*bu*bv - bu - bv)
	}
	return e
}

// cut is the weight of the edges whose endpoints b puts on opposite sides.
func (in *instance) cut(b []byte) int {
	c := 0
	for _, ed := range in.edges {
		if b[ed.u] != b[ed.v] {
			c += ed.w
		}
	}
	return c
}

// bruteForce sets in.opt to the exact minimum energy by enumerating every
// cut in Gray-code order with vertex n-1 pinned to side 0 (a cut and its
// complement have equal weight), updating the cut weight incrementally.
func (in *instance) bruteForce() {
	n := in.n
	adj := make([][]edge, n)
	for _, e := range in.edges {
		adj[e.u] = append(adj[e.u], e)
		adj[e.v] = append(adj[e.v], edge{u: e.v, v: e.u, w: e.w})
	}
	side := make([]bool, n)
	cut, best := 0, 0
	for k := uint64(1); k < 1<<uint(n-1); k++ {
		v := bits.TrailingZeros64(k)
		for _, e := range adj[v] {
			if side[e.v] == side[v] {
				cut += e.w
			} else {
				cut -= e.w
			}
		}
		side[v] = !side[v]
		best = max(best, cut)
	}
	in.opt = -best
}

// check recomputes a returned assignment's energy and cut from the
// instance and compares them with the program's reported energy and the
// exact optimum. It reports whether the assignment is optimal; an error
// means the output is wrong.
func (in *instance) check(binary []byte, reported float64) (optimal bool, err error) {
	if len(binary) != in.n {
		return false, fmt.Errorf("assignment has %d values, instance has %d vertices", len(binary), in.n)
	}
	for i, b := range binary {
		if b > 1 {
			return false, fmt.Errorf("assignment value %d at vertex %d is not 0/1", b, i)
		}
	}
	e, c := in.energy(binary), in.cut(binary)
	if e != -c {
		return false, fmt.Errorf("energy %d is not minus the cut %d", e, c)
	}
	if math.Abs(reported-float64(e)) > 1e-6 {
		return false, fmt.Errorf("reported energy %v, recomputed %d", reported, e)
	}
	if e < in.opt {
		return false, fmt.Errorf("energy %d below the exact optimum %d", e, in.opt)
	}
	return e == in.opt, nil
}

// erlangC is the M/M/c probability that an arrival waits, from the direct
// definition C = T/(S+T), S = Σ_{k<c} a^k/k!, T = a^c/c!·1/(1−ρ), with
// the terms built by running products (fine for the small c used here).
func erlangC(lambda, mu float64, c int) float64 {
	a := lambda / mu
	rho := a / float64(c)
	term, s := 1.0, 0.0
	for k := 0; k < c; k++ {
		s += term
		term *= a / float64(k+1)
	}
	t := term / (1 - rho)
	return t / (s + t)
}

// mmcSojourn is the M/M/c mean sojourn W = C/(cμ − λ) + 1/μ in seconds.
func mmcSojourn(lambda, mu float64, c int) float64 {
	return erlangC(lambda, mu, c)/(float64(c)*mu-lambda) + 1/mu
}
