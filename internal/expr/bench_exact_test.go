package expr_test

import (
	"runtime"
	"testing"

	"memsched/internal/baseline"
	"memsched/internal/expr"
)

// TestHMetisRMatchesBench pins both hMETIS+R variants to the committed
// BENCH_<figure>.json cells exactly, on every metrics.Row field: fig8
// (K=4, N <= 42) and fig9 (K=2, N <= 50). The partitioner's moves and
// its charged ops (static_ms) must not drift by a bit; paperbench's
// -baseline-check compares with tolerances and CI runs it on fig3 only,
// which has no hMETIS+R cell.
func TestHMetisRMatchesBench(t *testing.T) {
	labels := map[string]bool{"hMETIS+R": true, "hMETIS+R no part. time": true}
	for _, c := range []struct {
		fig  func() *expr.Figure
		maxN int
	}{{expr.Fig8, 42}, {expr.Fig9, 50}} {
		f := c.fig()
		strats := f.Strategies[:0:0]
		for _, s := range f.Strategies {
			if labels[s.Label] {
				strats = append(strats, s)
			}
		}
		points := f.Points[:0:0]
		for _, p := range f.Points {
			if p.N <= c.maxN {
				points = append(points, p)
			}
		}
		f.Strategies, f.Points = strats, points
		if len(strats) != 2 || len(points) == 0 {
			t.Fatalf("%s: selected %d strategies, %d points", f.ID, len(strats), len(points))
		}

		bench, err := baseline.Load(baseline.Path("../..", f.ID))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := f.Run(expr.RunOptions{Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			t.Fatal(err)
		}
		if want := len(strats) * len(points); len(rows) != want {
			t.Fatalf("%s: %d rows, want %d", f.ID, len(rows), want)
		}
		for _, r := range rows {
			key := baseline.Cell{Row: r}.Key()
			want, ok := bench.Cells[key]
			if !ok {
				t.Errorf("%s: no BENCH cell", key)
				continue
			}
			if r != want.Row {
				t.Errorf("%s differs from BENCH:\n got  %+v\n want %+v", key, r, want.Row)
			}
		}
	}
}
