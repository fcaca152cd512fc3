package main

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/embed"
	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/qubo"
	"github.com/splitexec/splitexec/internal/service"
)

// enumerate is the slow oracle for the oracle: the minimum energy over all
// 2^n assignments.
func enumerate(in *instance) int {
	best := math.MaxInt
	b := make([]byte, in.n)
	for k := 0; k < 1<<in.n; k++ {
		for i := range b {
			b[i] = byte(k >> i & 1)
		}
		best = min(best, in.energy(b))
	}
	return best
}

func TestBruteForceHandChecked(t *testing.T) {
	cases := []struct {
		name  string
		in    *instance
		opt   int
		cut   []byte
		value int
	}{
		// Triangle 1,2,3: at most two edges cross any cut; the best
		// separates the vertex between the two heavy edges.
		{"triangle", &instance{n: 3, edges: []edge{{0, 1, 1}, {1, 2, 2}, {0, 2, 3}}}, -5, []byte{0, 0, 1}, 5},
		// An even cycle is bipartite: alternate sides and every edge crosses.
		{"4-cycle", &instance{n: 4, edges: []edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {0, 3, 1}}}, -4, []byte{0, 1, 0, 1}, 4},
		// K4 with unit weights: a 2–2 split cuts 4 of its 6 edges.
		{"K4", &instance{n: 4, edges: []edge{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {1, 2, 1}, {1, 3, 1}, {2, 3, 1}}}, -4, []byte{0, 0, 1, 1}, 4},
		// A star is bipartite too: the hub alone on one side.
		{"star", &instance{n: 4, edges: []edge{{0, 1, 2}, {0, 2, 5}, {0, 3, 7}}}, -14, []byte{1, 0, 0, 0}, 14},
	}
	for _, c := range cases {
		c.in.bruteForce()
		if c.in.opt != c.opt {
			t.Errorf("%s: optimum %d, want %d", c.name, c.in.opt, c.opt)
		}
		if got := c.in.cut(c.cut); got != c.value {
			t.Errorf("%s: cut of %v is %d, want %d", c.name, c.cut, got, c.value)
		}
		optimal, err := c.in.check(c.cut, float64(-c.value))
		if err != nil || !optimal {
			t.Errorf("%s: check of an optimal cut: optimal %v, err %v", c.name, optimal, err)
		}
	}
}

func TestBruteForceMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, in := range append(freshSparse(20, rng), weighted(8, cubicPairs(8, rng), rng)) {
		if in.n > 14 {
			continue
		}
		in.bruteForce()
		if want := enumerate(in); in.opt != want {
			t.Fatalf("n=%d: Gray-code optimum %d, enumeration %d", in.n, in.opt, want)
		}
	}
}

func TestCheckRejectsWrongOutputs(t *testing.T) {
	in := &instance{n: 3, edges: []edge{{0, 1, 1}, {1, 2, 2}, {0, 2, 3}}}
	in.bruteForce()
	if _, err := in.check([]byte{0, 0, 1}, -4); err == nil {
		t.Error("a misreported energy passed")
	}
	if _, err := in.check([]byte{0, 1}, -1); err == nil {
		t.Error("a short assignment passed")
	}
	if _, err := in.check([]byte{0, 2, 1}, -5); err == nil {
		t.Error("a non-binary assignment passed")
	}
	in.opt = -6 // pretend the optimum is higher than it is
	if _, err := in.check([]byte{0, 0, 1}, -5); err != nil {
		t.Errorf("a suboptimal answer failed the check: %v", err)
	}
	in.opt = -4
	if _, err := in.check([]byte{0, 0, 1}, -5); err == nil {
		t.Error("an energy below the optimum passed")
	}
}

func TestErlangCTextbook(t *testing.T) {
	cases := []struct {
		lambda, mu float64
		c          int
		want       float64
	}{
		{0.6, 1, 1, 0.6},     // M/M/1: the waiting probability is ρ
		{1, 1, 2, 1.0 / 3},   // M/M/2 at ρ = 0.5: 2ρ²/(1+ρ)
		{4, 1, 5, 0.5541125}, // 4 Erlangs on 5 servers, the staffing-table value 0.5541
	}
	for _, c := range cases {
		if got := erlangC(c.lambda, c.mu, c.c); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("C(λ=%v, μ=%v, c=%d) = %.7f, want %.7f", c.lambda, c.mu, c.c, got, c.want)
		}
	}
	// M/M/1 sojourn: 1/(μ − λ).
	if got, want := mmcSojourn(600, 1000, 1), 1.0/400; math.Abs(got-want) > 1e-12 {
		t.Errorf("M/M/1 sojourn %v, want %v", got, want)
	}
}

func TestCubicGeneratorIsThreeRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		pairs := cubicPairs(cubicOrder, rng)
		seen := map[[2]int]bool{}
		deg := make([]int, cubicOrder)
		for _, p := range pairs {
			if p[0] == p[1] || seen[p] {
				t.Fatalf("graph %d: loop or repeated edge %v", i, p)
			}
			seen[p] = true
			deg[p[0]]++
			deg[p[1]]++
		}
		for v, d := range deg {
			if d != 3 {
				t.Fatalf("graph %d: vertex %d has degree %d", i, v, d)
			}
		}
	}
}

func TestFreshSparseDistinctAndEmbeddable(t *testing.T) {
	_, jobs := roundInputs(fabricWorkloads[0], 1, 0)
	cfg := serveConfig()
	hw := cfg.Node.QPU.WorkingGraph()
	seen := map[string]bool{}
	for i, in := range jobs {
		g := qubo.ToIsing(in.qubo()).Graph()
		if g.Order() < 10 || g.Order() > 16 || g.MaxDegree() > chimeraDegree {
			t.Fatalf("job %d: order %d, max degree %d", i, g.Order(), g.MaxDegree())
		}
		key := graph.CanonicalHash(g)
		if seen[key] {
			t.Fatalf("job %d repeats an earlier job's canonical hash", i)
		}
		seen[key] = true
		if _, _, err := embed.FindEmbedding(g, hw, rand.New(rand.NewSource(int64(i))), cfg.Embed); err != nil {
			t.Fatalf("job %d does not embed: %v", i, err)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, w := range fabricWorkloads {
		warmA, jobsA := roundInputs(w, 7, 2)
		warmB, jobsB := roundInputs(w, 7, 2)
		if !reflect.DeepEqual(warmA, warmB) || !reflect.DeepEqual(jobsA, jobsB) {
			t.Errorf("%s: one seed gave two input sets", w.name)
		}
		_, jobsC := roundInputs(w, 8, 2)
		if reflect.DeepEqual(jobsA, jobsC) {
			t.Errorf("%s: two seeds gave one input set", w.name)
		}
	}
}

func TestRepeatPoolJobsAreRelabelings(t *testing.T) {
	w, _ := fabricByName("repeat-pool")
	warm, jobs := roundInputs(w, 1, 0)
	keys := map[string]bool{}
	for _, in := range warm {
		keys[graph.CanonicalHash(in.graph())] = true
	}
	if len(keys) != poolSize {
		t.Fatalf("pool has %d distinct hashes, want %d", len(keys), poolSize)
	}
	for i, in := range jobs {
		if !keys[graph.CanonicalHash(in.graph())] {
			t.Fatalf("job %d is not a relabelling of a pool graph", i)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values of Python's statistics.quantiles(xs, n=4).
	cases := []struct{ xs, want []float64 }{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, []float64{0.75, 1.5, 2.25}},
		{[]float64{1, 1, 2, 3, 3, 4, 5, 5, 6, 9}, []float64{1.75, 3.5, 5.25}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := []float64{q1, q2, q3}; !reflect.DeepEqual(got, c.want) {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestCalibrationKernel(t *testing.T) {
	c := newCalibrator()
	// The chase table is one cycle through every slot.
	seen := make([]bool, len(c.next))
	x := uint32(0)
	for range c.next {
		if seen[x] {
			t.Fatalf("chase revisits slot %d before covering the table", x)
		}
		seen[x] = true
		x = c.next[x]
	}
	if x != 0 {
		t.Fatalf("chase ends at %d, not back at 0", x)
	}
	if a := testing.AllocsPerRun(3, func() { c.kernel() }); a != 0 {
		t.Errorf("kernel allocates %v times a run", a)
	}
	if c.measure() <= 0 {
		t.Error("calibration measured no time")
	}
	// At the reference kernel time nothing is scaled; at twice it, the
	// host ran at half speed, so durations halve and rates double.
	if atRefTime(3, refKernelMS) != 3 || atRefRate(3, refKernelMS) != 3 {
		t.Error("scaling at the reference kernel time is not the identity")
	}
	if atRefTime(3, 2*refKernelMS) != 1.5 || atRefRate(3, 2*refKernelMS) != 6 {
		t.Error("scaling at twice the reference kernel time is wrong")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	root := tr.add("job", "", 0, 0, t0, t0.Add(10e6))
	child := tr.add("a", "core", 0, root, t0, t0.Add(6e6))
	tr.add("b", "graph", 0, child, t0, t0.Add(2e6))
	tr.add("c", "embed", 0, root, t0.Add(6e6), t0.Add(9e6))
	b := tr.selfTimes("job")
	if b.jobs != 1 || b.total != 10e6 {
		t.Fatalf("jobs %d total %v", b.jobs, b.total)
	}
	want := map[string]float64{"core": 4e6, "graph": 2e6, "embed": 3e6}
	for l, d := range want {
		if float64(b.layerSelf[l]) != d {
			t.Errorf("layer %s self %v, want %v", l, b.layerSelf[l], d)
		}
	}
	if b.largestCall() != "a" {
		t.Errorf("largest call %q, want a", b.largestCall())
	}
}

// TestFabricRoundObserved runs one small round through the fabric with
// both hooks set, so the race detector sees the hooks' shared state.
func TestFabricRoundObserved(t *testing.T) {
	w := fabricWorkload{name: "tiny", tail: 0.9, gen: func(rng *rand.Rand) (warm, jobs []*instance) {
		return []*instance{probeInstance()}, freshSparse(12, rng)
	}}
	var mu sync.Mutex
	seen, rounds := 0, 0
	run, err := runFabric(w, 1, 0, hooks{
		observe: func(i int, start, end time.Time, r service.SolveResponse) {
			mu.Lock()
			defer mu.Unlock()
			seen++
		},
		after: func(f *fabric) { rounds++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.err != nil {
		t.Fatal(run.err)
	}
	if run.attempted != 12 || run.failed != 0 || seen != 12 || rounds != 1 {
		t.Fatalf("attempted %d, failed %d, observed %d, rounds %d", run.attempted, run.failed, seen, rounds)
	}
	if len(run.setups) != extraSetups+1 {
		t.Fatalf("%d set-ups timed, want %d", len(run.setups), extraSetups+1)
	}
}
