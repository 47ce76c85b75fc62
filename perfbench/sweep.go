package main

import (
	"fmt"
	"runtime"
	"time"

	"memsched/internal/baseline"
	"memsched/internal/expr"
	"memsched/internal/metrics"
	"memsched/internal/taskgraph"
)

// figureCells selects the cells of one paper figure that a sweep
// workload runs: the figure's strategies named in labels, at the points
// with N <= maxN (0 keeps every point).
type figureCells struct {
	figure func() *expr.Figure
	labels []string
	maxN   int
}

var (
	hmetisBoth = []string{"hMETIS+R", "hMETIS+R no part. time"}
	mhfpBoth   = []string{"mHFP", "mHFP no sched. time"}
	// dynamicLabels are the strategies without a static phase.
	dynamicLabels = []string{
		"EAGER", "DMDAR", "DARTS", "DARTS+LUF", "DARTS+LUF+threshold",
		"DARTS+LUF-3inputs", "DARTS+LUF+OPTI", "DARTS+LUF+OPTI-3inputs",
	}
)

// sweepWorkloads lists the cells of each sweep workload, in the order
// the figures run. The static caps keep every cell near 1/20 of a round's
// CPU or below: hMETIS+R costs 0.2-0.3 s per cell at these caps but
// grows about fourfold per step beyond them (fig8 n=60 takes 1.3 s).
var sweepWorkloads = map[string][]figureCells{
	"sweep-static": {
		{expr.Fig3And4, mhfpBoth, 68},
		{expr.Fig5, hmetisBoth[:1], 50},
		{expr.Fig6And7, hmetisBoth, 50},
		{expr.Fig8, hmetisBoth, 42},
		{expr.Fig9, hmetisBoth, 50},
	},
	"sweep-dynamic": {
		{expr.Fig3And4, dynamicLabels, 0},
		{expr.Fig8, dynamicLabels, 0},
		{expr.Fig10, dynamicLabels, 0},
		{expr.Fig11, dynamicLabels, 0},
		{expr.Fig12, dynamicLabels, 0},
	},
}

// plan builds the trimmed figure: the selected strategies in legend
// order and the selected points largest first, so the longest cells
// start first and a round does not end on one worker finishing a big
// cell alone. Cells are independent deterministic simulations, so the
// order changes no row.
func (c figureCells) plan() (*expr.Figure, error) {
	f := c.figure()
	keep := make(map[string]bool, len(c.labels))
	for _, l := range c.labels {
		keep[l] = true
	}
	strats := f.Strategies[:0:0]
	for _, s := range f.Strategies {
		if keep[s.Label] {
			strats = append(strats, s)
		}
	}
	var points []expr.Point
	for i := len(f.Points) - 1; i >= 0; i-- {
		if c.maxN == 0 || f.Points[i].N <= c.maxN {
			points = append(points, f.Points[i])
		}
	}
	if len(strats) == 0 || len(points) == 0 {
		return nil, fmt.Errorf("%s: selection keeps no cell", f.ID)
	}
	f.Strategies, f.Points = strats, points
	return f, nil
}

// sweep is a planned sweep workload with its correctness oracle: the
// committed BENCH_<figure>.json cells, keyed figure:workload:strategy.
type sweep struct {
	figures []*expr.Figure
	oracle  map[string]metrics.Row
	cells   int
}

// loadSweep plans the workload's figures and loads their oracles from
// the BENCH_*.json files in dir. Loading is part of set-up: it is the
// once-per-run work a sweep does before its first cell.
func loadSweep(name, dir string) (*sweep, error) {
	sel, ok := sweepWorkloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown sweep workload %q", name)
	}
	sw := &sweep{oracle: make(map[string]metrics.Row)}
	for _, c := range sel {
		f, err := c.plan()
		if err != nil {
			return nil, err
		}
		bf, err := baseline.Load(baseline.Path(dir, f.ID))
		if err != nil {
			return nil, fmt.Errorf("oracle for %s: %w", f.ID, err)
		}
		for k, cell := range bf.Cells {
			sw.oracle[k] = cell.Row
		}
		sw.figures = append(sw.figures, f)
		sw.cells += len(f.Points) * len(f.Strategies)
	}
	return sw, nil
}

// warmUp runs the smallest point of every planned figure once, so code
// paths and the heap are warm before the first timed round. Its rows are
// checked like any other.
func (sw *sweep) warmUp() (attempted, failed int) {
	for _, f := range sw.figures {
		small := *f
		small.Points = f.Points[len(f.Points)-1:]
		rows, err := small.Run(expr.RunOptions{Workers: runtime.GOMAXPROCS(0)})
		a, fl := sw.check(&small, rows, err)
		attempted += a
		failed += fl
	}
	return attempted, failed
}

// round runs every planned cell once through expr.Figure.Run, one figure
// after another like paperbench, and checks each row against its oracle.
// The round is one sweep request covering all its cells (the sweep's
// jobs); a job's latency is the time from the round's start until its row
// is done, read off the progress line Figure.Run writes per finished row.
func (sw *sweep) round(opt expr.RunOptions) (attempted, failed int, latencies []float64) {
	start := time.Now()
	for _, f := range sw.figures {
		clock := &rowClock{start: start}
		opt.Progress = clock
		rows, err := f.Run(opt)
		a, fl := sw.check(f, rows, err)
		attempted += a
		failed += fl
		latencies = append(latencies, clock.ms...)
	}
	return attempted, failed, latencies
}

// rowClock timestamps the progress lines of one Figure.Run since start:
// one Write per finished row, all from Figure.Run's single progress
// goroutine, which has exited by the time Run returns.
type rowClock struct {
	start time.Time
	ms    []float64
}

func (c *rowClock) Write(p []byte) (int, error) {
	c.ms = append(c.ms, msSince(c.start))
	return len(p), nil
}

// check compares a figure's rows with the oracle exactly, on every
// metrics.Row field. A cell that errored, is missing, or differs counts
// as failed.
func (sw *sweep) check(f *expr.Figure, rows []metrics.Row, err error) (attempted, failed int) {
	attempted = len(f.Points) * len(f.Strategies)
	if err != nil {
		logf("%s: %v", f.ID, err)
	}
	matched := 0
	for _, r := range rows {
		key := baseline.Cell{Row: r}.Key()
		want, ok := sw.oracle[key]
		switch {
		case !ok:
			logf("%s: no oracle cell for %s", f.ID, key)
		case r != want:
			logf("%s: %s differs from BENCH:\n  got  %+v\n  want %+v", f.ID, key, r, want)
		default:
			matched++
		}
	}
	return attempted, attempted - matched
}

// sweepResult is what a sweep workload measured.
type sweepResult struct {
	attempted, failed int
	setup             []float64 // seconds per set-up
	walls, cpus       []float64 // seconds per timed round
	latencies         []float64 // ms from figure start to row done
	cellsPerRound     int
	peakRSS           float64
	layers            map[string]metric
}

// runSweep sets the workload up setups times (the last set-up is the one
// measured from), then times whole rounds until seconds have passed,
// at least minRounds of them. Peak RSS is read after minRounds rounds, so
// it always covers the same work.
func runSweep(name, dir string, seconds float64, trace bool) (*sweepResult, error) {
	res := &sweepResult{}
	var sw *sweep
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var err error
		sw, err = loadSweep(name, dir)
		if err != nil {
			return nil, err
		}
		a, f := sw.warmUp()
		res.setup = append(res.setup, time.Since(t0).Seconds())
		res.attempted += a
		res.failed += f
	}
	opt := expr.RunOptions{Workers: runtime.GOMAXPROCS(0)}
	if trace {
		return res, sw.traced(res)
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(res.walls) < minRounds || time.Now().Before(deadline) {
		p := startPhase()
		a, f, lat := sw.round(opt)
		wall, cpu := p.end()
		res.walls = append(res.walls, wall)
		res.cpus = append(res.cpus, cpu)
		res.latencies = append(res.latencies, lat...)
		res.attempted += a
		res.failed += f
		if len(res.walls) == minRounds {
			var err error
			if res.peakRSS, err = peakRSSMB(); err != nil {
				return nil, err
			}
		}
	}
	res.cellsPerRound = sw.cells
	return res, nil
}

// traced runs one plain round and then the same round with every layer
// wrapped, both on a single worker: the layer timers need no
// synchronisation, and the two rounds differ only in the wrapping, which
// gives the tracing overhead. It derives the per-layer metrics from the
// wrapped round.
func (sw *sweep) traced(res *sweepResult) error {
	p := startPhase()
	a, f, _ := sw.round(expr.RunOptions{Workers: 1})
	_, plainCPU := p.end()
	res.attempted += a
	res.failed += f

	rec := newSweepRecorder()
	var speed expr.SweepSpeed
	before := sampleRuntime()
	p = startPhase()
	for _, fig := range sw.figures {
		tf := rec.wrapFigure(fig)
		rows, err := tf.Run(expr.RunOptions{Workers: 1, Speed: &speed})
		a, f := sw.check(tf, rows, err)
		res.attempted += a
		res.failed += f
	}
	wall, cpu := p.end()
	after := sampleRuntime()
	res.layers = rec.metrics(wall, speed.Events)
	res.layers["runtime.alloc_mb"] = metric{(after.allocBytes - before.allocBytes) / 1e6, "MB"}
	res.layers["runtime.gc_cpu_s"] = metric{after.gcCPU - before.gcCPU, "s"}
	res.layers["trace.overhead_share"] = metric{cpu/plainCPU - 1, "share"}
	return nil
}

// wrapFigure returns a copy of f whose points and strategies report to
// the recorder.
func (rec *sweepRecorder) wrapFigure(f *expr.Figure) *expr.Figure {
	tf := *f
	tf.Points = make([]expr.Point, len(f.Points))
	for i, p := range f.Points {
		build := p.Build
		tf.Points[i] = expr.Point{N: p.N, Build: func() *taskgraph.Instance {
			t0 := time.Now()
			inst := build()
			rec.buildS += time.Since(t0).Seconds()
			rec.builds++
			rec.instances[inst.Name()] = true
			return inst
		}}
	}
	tf.Strategies = f.Strategies[:0:0]
	for _, s := range f.Strategies {
		tf.Strategies = append(tf.Strategies, rec.wrapStrategy(s))
	}
	return &tf
}
