package main

import (
	"fmt"
	"time"

	"memsched/internal/memory"
	"memsched/internal/sched"
	"memsched/internal/sim"
	"memsched/internal/taskgraph"
)

// initKind says which layer a strategy's Init belongs to.
type initKind int

const (
	initOther     initKind = iota // DMDA allocation, DARTS set-up, ...
	initPartition                 // hMETIS+R: hypergraph partitioning
	initPack                      // mHFP: HFP packing
)

func initKindOf(label string) initKind {
	switch label {
	case "hMETIS+R", "hMETIS+R no part. time":
		return initPartition
	case "mHFP", "mHFP no sched. time":
		return initPack
	}
	return initOther
}

// sweepRecorder accumulates the per-layer timers and counters of one
// traced sweep. It is used from a single goroutine (the traced sweep runs
// one worker), and read after expr.Figure.Run returns.
type sweepRecorder struct {
	buildS    float64
	builds    int
	instances map[string]bool

	partitionS  float64
	partitions  int
	repeats     int
	partitioned map[string]bool
	packS       float64
	initOtherS  float64
	popS        float64
	popCalls    int64
	popEmpty    int64
	notifyS     float64
	victimS     float64
	victimCalls int64
	policyS     float64
}

func newSweepRecorder() *sweepRecorder {
	return &sweepRecorder{instances: map[string]bool{}, partitioned: map[string]bool{}}
}

// metrics turns the recorder into per-layer metrics. wall is the traced
// sweep's wall time and events the simulated events it processed; the
// simulator's self time is what is left of wall after every wrapped
// layer.
func (rec *sweepRecorder) metrics(wall float64, events int64) map[string]metric {
	layers := rec.buildS + rec.partitionS + rec.packS + rec.initOtherS +
		rec.popS + rec.notifyS + rec.victimS + rec.policyS
	self := wall - layers
	return map[string]metric{
		"workload.build_s":             {rec.buildS, "s"},
		"workload.builds_per_instance": {ratio(float64(rec.builds), float64(len(rec.instances))), "count"},
		"hypergraph.partition_s":       {rec.partitionS, "s"},
		"hypergraph.repeat_share":      {ratio(float64(rec.repeats), float64(rec.partitions)), "share"},
		"sched.pack_s":                 {rec.packS, "s"},
		"sched.init_other_s":           {rec.initOtherS, "s"},
		"sched.pop_s":                  {rec.popS, "s"},
		"sched.pop_calls":              {float64(rec.popCalls), "count"},
		"sched.pop_empty_share":        {ratio(float64(rec.popEmpty), float64(rec.popCalls)), "share"},
		"sched.notify_s":               {rec.notifyS, "s"},
		"memory.victim_s":              {rec.victimS, "s"},
		"memory.victim_calls":          {float64(rec.victimCalls), "count"},
		"memory.notify_s":              {rec.policyS, "s"},
		"sim.events":                   {float64(events), "count"},
		"sim.self_s":                   {self, "s"},
		"sim.ns_per_event":             {ratio(self*1e9, float64(events)), "ns"},
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// wrapStrategy returns s with its scheduler and eviction policy timed.
// Like expr's own runner it substitutes LRU where the strategy brings no
// policy, so the engine sees exactly the pair it would run unwrapped.
func (rec *sweepRecorder) wrapStrategy(s sched.Strategy) sched.Strategy {
	kind := initKindOf(s.Label)
	return sched.Strategy{Label: s.Label, New: func() (sim.Scheduler, sim.EvictionPolicy) {
		sc, pol := s.New()
		var ev sim.EvictionPolicy = pol
		if ev == nil {
			ev = memory.NewLRU()
		}
		ts := &timedScheduler{inner: sc, rec: rec, kind: kind}
		tp := &timedPolicy{inner: ev, rec: rec}
		if dh, ok := sc.(sim.DropoutHandler); ok {
			return &timedDropoutScheduler{timedScheduler: ts, dh: dh}, tp
		}
		return ts, tp
	}}
}

// timedScheduler forwards every sim.Scheduler call and times it.
type timedScheduler struct {
	inner sim.Scheduler
	rec   *sweepRecorder
	kind  initKind
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Init(inst *taskgraph.Instance, view sim.RuntimeView) {
	t0 := time.Now()
	s.inner.Init(inst, view)
	d := time.Since(t0).Seconds()
	rec := s.rec
	switch s.kind {
	case initPartition:
		rec.partitionS += d
		rec.partitions++
		key := fmt.Sprintf("%s|%d", inst.Name(), view.Platform().NumGPUs)
		if rec.partitioned[key] {
			rec.repeats++
		}
		rec.partitioned[key] = true
	case initPack:
		rec.packS += d
	default:
		rec.initOtherS += d
	}
}

func (s *timedScheduler) PopTask(gpu int) (taskgraph.TaskID, bool) {
	t0 := time.Now()
	t, ok := s.inner.PopTask(gpu)
	s.rec.popS += time.Since(t0).Seconds()
	s.rec.popCalls++
	if !ok {
		s.rec.popEmpty++
	}
	return t, ok
}

func (s *timedScheduler) TaskDone(gpu int, t taskgraph.TaskID) {
	t0 := time.Now()
	s.inner.TaskDone(gpu, t)
	s.rec.notifyS += time.Since(t0).Seconds()
}

func (s *timedScheduler) DataLoaded(gpu int, d taskgraph.DataID) {
	t0 := time.Now()
	s.inner.DataLoaded(gpu, d)
	s.rec.notifyS += time.Since(t0).Seconds()
}

func (s *timedScheduler) DataEvicted(gpu int, d taskgraph.DataID) {
	t0 := time.Now()
	s.inner.DataEvicted(gpu, d)
	s.rec.notifyS += time.Since(t0).Seconds()
}

// timedDropoutScheduler is timedScheduler for schedulers that handle GPU
// dropouts. It exists separately because the engine treats a scheduler
// without the hook differently, so the wrapper must have the hook
// exactly when the wrapped scheduler does.
type timedDropoutScheduler struct {
	*timedScheduler
	dh sim.DropoutHandler
}

func (s *timedDropoutScheduler) GPUDropped(gpu int, requeue []taskgraph.TaskID) {
	t0 := time.Now()
	s.dh.GPUDropped(gpu, requeue)
	s.rec.notifyS += time.Since(t0).Seconds()
}

// timedPolicy forwards every sim.EvictionPolicy call and times it.
type timedPolicy struct {
	inner sim.EvictionPolicy
	rec   *sweepRecorder
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Init(inst *taskgraph.Instance, view sim.RuntimeView) {
	t0 := time.Now()
	p.inner.Init(inst, view)
	p.rec.policyS += time.Since(t0).Seconds()
}

func (p *timedPolicy) Loaded(gpu int, d taskgraph.DataID) {
	t0 := time.Now()
	p.inner.Loaded(gpu, d)
	p.rec.policyS += time.Since(t0).Seconds()
}

func (p *timedPolicy) Used(gpu int, d taskgraph.DataID) {
	t0 := time.Now()
	p.inner.Used(gpu, d)
	p.rec.policyS += time.Since(t0).Seconds()
}

func (p *timedPolicy) Victim(gpu int, candidates []taskgraph.DataID) taskgraph.DataID {
	t0 := time.Now()
	d := p.inner.Victim(gpu, candidates)
	p.rec.victimS += time.Since(t0).Seconds()
	p.rec.victimCalls++
	return d
}

func (p *timedPolicy) Evicted(gpu int, d taskgraph.DataID) {
	t0 := time.Now()
	p.inner.Evicted(gpu, d)
	p.rec.policyS += time.Since(t0).Seconds()
}
