package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"memsched/internal/baseline"
	"memsched/internal/expr"
	"memsched/internal/fleet"
	"memsched/internal/serve"
)

// repoRoot holds the BENCH_*.json oracles and BENCHMARK.json; go test
// runs in the package directory.
const repoRoot = ".."

func TestSpecGenDeterministicBySeed(t *testing.T) {
	draw := func(seed int64, client int) []serve.JobRequest {
		g := newSpecGen(seed, client, fleetClients)
		out := make([]serve.JobRequest, 500)
		for i := range out {
			out[i], _ = g.next()
		}
		return out
	}
	if !reflect.DeepEqual(draw(7, 0), draw(7, 0)) {
		t.Fatal("same seed and client gave different streams")
	}
	if reflect.DeepEqual(draw(7, 0), draw(8, 0)) {
		t.Fatal("different seeds gave the same stream")
	}
	if reflect.DeepEqual(draw(7, 0), draw(7, 1)) {
		t.Fatal("different clients gave the same stream")
	}
}

func TestSpecGenRepeatShareIsExact(t *testing.T) {
	const perClient = 4 * 250
	fresh := map[string]bool{}
	for _, w := range warmupSpecs(3, warmupJobs) {
		fresh[fleet.CanonicalKey(w)] = true
	}
	if len(fresh) != warmupJobs {
		t.Fatalf("%d distinct warm-up specs of %d", len(fresh), warmupJobs)
	}
	for c := 0; c < fleetClients; c++ {
		g := newSpecGen(3, c, fleetClients)
		var own []serve.JobRequest
		repeats := 0
		for i := 0; i < perClient; i++ {
			req, repeat := g.next()
			if c := fleet.Canonicalize(req); c.Validate(300, 8) != nil {
				t.Fatalf("invalid spec %+v", req)
			}
			key := fleet.CanonicalKey(req)
			if !repeat {
				if fresh[key] {
					t.Fatalf("fresh spec %+v repeats an earlier spec", req)
				}
				fresh[key] = true
				own = append(own, req)
				continue
			}
			repeats++
			recent := own[max(0, len(own)-repeatWindow):]
			found := false
			for _, r := range recent {
				found = found || r == req
			}
			if !found {
				t.Fatalf("repeat %+v is not among the client's last %d fresh specs", req, repeatWindow)
			}
		}
		if repeats*repeatEvery != perClient {
			t.Fatalf("client %d: %d repeats in %d submissions, want exactly 1 in %d",
				c, repeats, perClient, repeatEvery)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{7, 3, 10, 1, 5, 2, 9, 4, 8, 6}
	for _, tc := range []struct{ q, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.91, 10}, {1, 10}, {0, 1},
	} {
		if got := quantile(s, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if s[0] != 7 {
		t.Error("quantile sorted its input in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of 1..4 = %v, want 2 (lower middle)", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if v, err := tailQuantile("p90", hundred, 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := tailQuantile("p90", hundred[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples leaves fewer than 10 beyond it but was reported")
	}
}

// TestSweepCellsAreOracleBacked checks that every cell a sweep workload
// runs has a committed BENCH cell to compare with, and that the static
// workload runs only strategies with a static phase and the dynamic one
// only strategies without.
func TestSweepCellsAreOracleBacked(t *testing.T) {
	for name, sel := range sweepWorkloads {
		sw, err := loadSweep(name, repoRoot)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range sw.figures {
			full := sel[i].figure()
			for _, s := range full.Strategies {
				kept := false
				for _, k := range f.Strategies {
					kept = kept || k.Label == s.Label
				}
				static := initKindOf(s.Label) != initOther
				if want := static == (name == "sweep-static") && contains(sel[i].labels, s.Label); kept != want {
					t.Errorf("%s %s: strategy %s kept=%v, want %v", name, f.ID, s.Label, kept, want)
				}
			}
			if name == "sweep-static" && len(f.Strategies) != len(sel[i].labels) {
				t.Errorf("%s %s: %d of %d listed strategies exist", name, f.ID, len(f.Strategies), len(sel[i].labels))
			}
			for _, p := range f.Points {
				inst := p.Build().Name()
				for _, s := range f.Strategies {
					key := f.ID + ":" + inst + ":" + s.Label
					if _, ok := sw.oracle[key]; !ok {
						t.Errorf("%s: cell %s has no BENCH oracle", name, key)
					}
				}
			}
		}
	}
}

func contains(list []string, s string) bool {
	for _, l := range list {
		if l == s {
			return true
		}
	}
	return false
}

// TestWrappedFigureReproducesBench runs every cell of fig9 (EAGER,
// DMDAR, both hMETIS+R variants, DARTS with LRU and with its own LUF
// policy) through the traced path and requires each row to equal its
// BENCH cell: the wrappers observe and change nothing.
func TestWrappedFigureReproducesBench(t *testing.T) {
	f := expr.Fig9()
	bf, err := baseline.Load(baseline.Path(repoRoot, f.ID))
	if err != nil {
		t.Fatal(err)
	}
	rec := newSweepRecorder()
	rows, err := rec.wrapFigure(f).Run(expr.RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(bf.Cells) {
		t.Fatalf("%d rows, BENCH has %d cells", len(rows), len(bf.Cells))
	}
	for _, r := range rows {
		key := baseline.Cell{Row: r}.Key()
		if want := bf.Cells[key].Row; r != want {
			t.Errorf("%s:\n got  %+v\n want %+v", key, r, want)
		}
	}
	if rec.builds != len(rows) || rec.partitions != 2*len(f.Points) || rec.popCalls == 0 || rec.victimCalls == 0 {
		t.Errorf("recorder missed calls: builds %d partitions %d pops %d victims %d",
			rec.builds, rec.partitions, rec.popCalls, rec.victimCalls)
	}
}

// TestFleetRunIsCorrect drives the fleet for its minimum number of
// rounds, plain and traced (the traced run includes a journaled fleet),
// and checks the oracle and the counters.
func TestFleetRunIsCorrect(t *testing.T) {
	for _, trace := range []bool{false, true} {
		res, err := runFleet(t.TempDir(), 5, 0, trace)
		if err != nil {
			t.Fatal(err)
		}
		if res.snapshotErr != nil {
			t.Fatal(res.snapshotErr)
		}
		failed, err := verifyFleet(res.outcomes)
		if err != nil || failed != 0 {
			t.Fatalf("trace=%v: %d of %d jobs failed the oracle (%v)", trace, failed, len(res.outcomes), err)
		}
		if !trace {
			continue
		}
		// The router signals a job done before it fills the cache, so a
		// repeat submitted right after its original can miss; the hit
		// share may fall short of the repeat share, never exceed it.
		l := res.layers
		if got := l["fleet.repeat_share"].Value; got != 1.0/repeatEvery {
			t.Errorf("repeat share %v, want %v", got, 1.0/repeatEvery)
		}
		if got := l["fleet.cache_hit_share"].Value; got > 1.0/repeatEvery || got < 0.9/repeatEvery {
			t.Errorf("cache hit share %v, want at most and about %v", got, 1.0/repeatEvery)
		}
		if l["fleet.dispatches_per_job"].Value < 1 || l["journal.records_per_job"].Value < 2 || l["serve.handler_p50_ms"].Value <= 0 {
			t.Errorf("fleet layers not observed: %+v", l)
		}
	}
}

// TestBenchmarkJSONMatchesReport checks BENCHMARK.json against what the
// program prints: the same workloads, and the same metrics with the
// same units.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	raw, err := os.ReadFile(repoRoot + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	e2e, err := endToEnd([]float64{1}, []float64{1}, []float64{1}, make([]float64, 100), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := units(spec.EndToEnd), unitsOf(e2e); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end %v, program prints %v", got, want)
	}
	if got, want := units(spec.PerLayer), unitsOf(withAllLayers(nil)); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer %v, program prints %v", got, want)
	}
}

func units(list []struct{ Name, Unit string }) map[string]string {
	m := map[string]string{}
	for _, x := range list {
		m[x.Name] = x.Unit
	}
	return m
}

func unitsOf(m map[string]metric) map[string]string {
	out := map[string]string{}
	for k, v := range m {
		out[k] = v.Unit
	}
	return out
}
