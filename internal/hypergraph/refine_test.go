package hypergraph

import (
	"math/rand"
	"slices"
	"testing"
)

// randomWeighted builds a random hypergraph with vertex weights 1-3 and
// net weights 1-20, nets of 2-6 pins plus a few wider ones.
func randomWeighted(rng *rand.Rand, n int) *Hypergraph {
	h := New(n)
	for v := 0; v < n; v++ {
		h.SetVertexWeight(v, int64(1+rng.Intn(3)))
	}
	nets := n + rng.Intn(2*n)
	for i := 0; i < nets; i++ {
		sz := 2 + rng.Intn(5)
		if rng.Intn(20) == 0 {
			sz = 2 + rng.Intn(n/4+1)
		}
		pins := make([]int32, sz)
		for j := range pins {
			pins[j] = int32(rng.Intn(n))
		}
		h.AddNet(int64(1+rng.Intn(20)), pins...)
	}
	return h
}

// withPass runs f with refine using pass.
func withPass(t *testing.T, pass func(*bisection) (int64, int64), f func()) {
	t.Helper()
	prev := runPass
	runPass = pass
	defer func() { runPass = prev }()
	f()
}

// TestPartitionMatchesReferencePass checks that the one-entry heap pass
// makes exactly the moves, and charges exactly the ops, of the reference
// pass that recomputes gains from scratch: Partition must return the
// same part and Stats on random weighted hypergraphs.
func TestPartitionMatchesReferencePass(t *testing.T) {
	instances := 1000
	if raceEnabled {
		instances = 200
	}
	for i := 0; i < instances; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		n := 4 + rng.Intn(120)
		h := randomWeighted(rng, n)
		cfg := Config{
			K:         2 + rng.Intn(4),
			Seed:      int64(i),
			MinCoarse: 8 + rng.Intn(61),
			Nruns:     1 + rng.Intn(4),
			MaxPasses: 1 + rng.Intn(6),
			Parallel:  i%2 == 0,
		}
		var refPart []int
		var refStats Stats
		withPass(t, (*bisection).fmPassReference, func() {
			var err error
			refPart, refStats, err = Partition(h, cfg)
			if err != nil {
				t.Fatal(err)
			}
		})
		part, stats, err := Partition(h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(part, refPart) || stats != refStats {
			t.Fatalf("instance %d (n=%d %+v): got stats %+v, reference %+v; parts equal: %v",
				i, n, cfg, stats, refStats, slices.Equal(part, refPart))
		}
	}
}

// TestPartitionMatchesReferencePassOnWideNets covers nets wider than
// maxNetSizeForMatching, whose pins the pass keeps exact gains for but
// does not re-key.
func TestPartitionMatchesReferencePassOnWideNets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = maxNetSizeForMatching + 400
	h := New(n)
	for v := 0; v < n; v++ {
		h.SetVertexWeight(v, int64(1+rng.Intn(3)))
	}
	for w := 0; w < 3; w++ {
		perm := rng.Perm(n)[:maxNetSizeForMatching+1+rng.Intn(300)]
		pins := make([]int32, len(perm))
		for j, p := range perm {
			pins[j] = int32(p)
		}
		h.AddNet(int64(1+rng.Intn(20)), pins...)
	}
	for i := 0; i < 2*n; i++ {
		h.AddNet(int64(1+rng.Intn(20)), int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	total := h.TotalVertexWeight()
	for trial := 0; trial < 3; trial++ {
		start := make([]int, n)
		for v := range start {
			start[v] = rng.Intn(2)
		}
		maxW := [2]int64{total/2 + total/50, total/2 + total/50}
		ref := newBisection(h, slices.Clone(start), maxW)
		var refOps int64
		withPass(t, (*bisection).fmPassReference, func() { refOps = ref.refine(4) })
		got := newBisection(h, slices.Clone(start), maxW)
		ops := got.refine(4)
		if !slices.Equal(got.part, ref.part) || ops != refOps {
			t.Fatalf("trial %d: ops %d, reference %d; parts equal: %v",
				trial, ops, refOps, slices.Equal(got.part, ref.part))
		}
	}
}

// matmulLike builds the hypergraph of an n x n 2D matrix product: one
// task per output tile, one net per row block and per column block.
func matmulLike(n int) *Hypergraph {
	h := New(n * n)
	row := make([]int32, n)
	col := make([]int32, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			row[j] = int32(i*n + j)
			col[j] = int32(j*n + i)
		}
		h.AddNet(3, row...)
		h.AddNet(3, col...)
	}
	return h
}

// TestPartitionParallelFreshHypergraph partitions hypergraphs whose
// incidence index is not built yet: the parallel V-cycles must not race
// on building it, and must agree with the sequential run.
func TestPartitionParallelFreshHypergraph(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := Config{K: 4, Seed: seed, Parallel: true}
		par, parStats, err := Partition(matmulLike(24), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Parallel = false
		seq, seqStats, err := Partition(matmulLike(24), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(par, seq) || parStats != seqStats {
			t.Fatalf("seed %d: parallel %+v differs from sequential %+v", seed, parStats, seqStats)
		}
	}
}

// TestRebalanceStopsOnCycle: with these weights and caps each of v0 and
// v1 overloads the other side in turn, so the greedy moves repeat
// v0, v1, v0, v1, ... and rebalance must stop once the partition recurs.
func TestRebalanceStopsOnCycle(t *testing.T) {
	h := New(4)
	for v, w := range []int64{16, 30, 98, 95} {
		h.SetVertexWeight(v, w)
	}
	b := newBisection(h, []int{1, 1, 0, 1}, [2]int64{121, 122})
	b.rebalance()
	if b.feasible() {
		t.Fatalf("no feasible partition exists, got weights %v", b.partW)
	}
}

// TestRebalanceTerminatesOnRandomInputs drives rebalance from random
// infeasible starts with tight caps, where greedy moves can cycle.
func TestRebalanceTerminatesOnRandomInputs(t *testing.T) {
	for i := 0; i < 500; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		n := 2 + rng.Intn(12)
		h := New(n)
		var total int64
		for v := 0; v < n; v++ {
			w := int64(1 + rng.Intn(100))
			h.SetVertexWeight(v, w)
			total += w
		}
		for j := 0; j < n; j++ {
			h.AddNet(int64(1+rng.Intn(5)), int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		part := make([]int, n)
		for v := range part {
			part[v] = rng.Intn(2)
		}
		half := total / 2
		b := newBisection(h, part, [2]int64{half + int64(rng.Intn(5)), half + int64(rng.Intn(5))})
		b.rebalance()
	}
}

// TestPartitionFewerVerticesThanParts: a side with no vertices left to
// split is labelled, not partitioned, so n < K works for every K.
func TestPartitionFewerVerticesThanParts(t *testing.T) {
	for k := 2; k <= 8; k++ {
		for n := 1; n <= k+1; n++ {
			h := New(n)
			for v := 0; v+1 < n; v++ {
				h.AddNet(1, int32(v), int32(v+1))
			}
			for _, parallel := range []bool{false, true} {
				part, _, err := Partition(h, Config{K: k, Seed: 1, Parallel: parallel})
				if err != nil {
					t.Fatal(err)
				}
				if len(part) != n {
					t.Fatalf("K=%d n=%d: %d labels", k, n, len(part))
				}
				for _, p := range part {
					if p < 0 || p >= k {
						t.Fatalf("K=%d n=%d: label %d out of range", k, n, p)
					}
				}
			}
		}
	}
}

// TestPartitionReraisesCyclePanic: a panic inside a parallel V-cycle
// reaches the caller's goroutine, where a recover can handle it.
func TestPartitionReraisesCyclePanic(t *testing.T) {
	boom := func(*bisection) (int64, int64) { panic("boom") }
	var got any
	withPass(t, boom, func() {
		defer func() { got = recover() }()
		Partition(matmulLike(12), Config{K: 4, Seed: 1, Parallel: true})
	})
	if got != "boom" {
		t.Fatalf("recovered %v, want the cycle's panic", got)
	}
}
