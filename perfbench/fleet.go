package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"memsched/internal/fleet"
	"memsched/internal/serve"
)

const (
	fleetClients   = 2   // closed-loop clients, each waiting for its job
	fleetReplicas  = 2   // in-process replicas behind the router
	replicaWorkers = 1   // simulation workers per replica
	roundPerClient = 200 // submissions per client per round (a multiple of repeatEvery)
	warmupJobs     = 40  // distinct warm-up jobs per set-up, never reused
	// roundsPerSecond sets a phase's fixed work from --seconds: 5 rounds
	// of 400 jobs is about a second of this fleet on a 2-vCPU VM.
	roundsPerSecond = 5
	jobWait         = 30 * time.Second
	// tracedRounds is the fewest rounds a traced phase makes: 1200 cache
	// misses leave ten samples beyond their 99th percentile.
	tracedRounds = 4
)

// fleetRun is one in-process fleet: replicas, a router (with or without
// a journal on disk) and the HTTP client the benchmark's clients share.
type fleetRun struct {
	replicas  []*serve.Server
	servers   []*http.Server
	router    *fleet.Router
	routerURL string
	journal   *fleet.Journal
	client    *http.Client
	serving   sync.WaitGroup // one per server's Serve goroutine
}

// startFleet brings a fleet up. With journalPath set the router journals
// to that file; obs, when non-nil, wraps the replica handlers and the
// router's dispatch client.
func startFleet(journalPath string, obs *fleetObserver) (*fleetRun, error) {
	fr := &fleetRun{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * fleetClients}}}
	var urls []string
	for i := 0; i < fleetReplicas; i++ {
		s := serve.New(serve.Config{Workers: replicaWorkers})
		fr.replicas = append(fr.replicas, s)
		h := s.Handler()
		if obs != nil {
			h = obs.wrapHandler(h)
		}
		url, err := fr.serve(h)
		if err != nil {
			fr.close()
			return nil, err
		}
		urls = append(urls, url)
	}
	cfg := fleet.Config{Replicas: urls}
	if journalPath != "" {
		j, err := fleet.OpenJournal(journalPath)
		if err != nil {
			fr.close()
			return nil, err
		}
		fr.journal = j
		cfg.Journal = j
	}
	if obs != nil {
		cfg.HTTPClient = &http.Client{Transport: obs.wrapTransport(http.DefaultTransport)}
	}
	r, err := fleet.New(cfg)
	if err != nil {
		fr.close()
		return nil, err
	}
	r.Start()
	fr.router = r
	if fr.routerURL, err = fr.serve(r.Handler()); err != nil {
		fr.close()
		return nil, err
	}
	return fr, nil
}

// serve starts an HTTP server for h on a loopback port.
func (fr *fleetRun) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	fr.servers = append(fr.servers, hs)
	fr.serving.Add(1)
	go func() {
		defer fr.serving.Done()
		hs.Serve(ln) // returns ErrServerClosed once close calls Close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the router, the replicas and every HTTP server, and closes
// the journal.
func (fr *fleetRun) close() error {
	var errs []error
	if fr.router != nil {
		errs = append(errs, fr.router.Drain(10*time.Second))
	}
	for _, hs := range fr.servers {
		errs = append(errs, hs.Close())
	}
	fr.serving.Wait()
	for _, s := range fr.replicas {
		errs = append(errs, s.Drain(10*time.Second))
	}
	if fr.journal != nil {
		errs = append(errs, fr.journal.Close())
	}
	fr.client.CloseIdleConnections()
	return errors.Join(errs...)
}

// jobOutcome is one client-observed job.
type jobOutcome struct {
	req      serve.JobRequest
	repeat   bool
	err      error
	cacheHit bool
	submitMS float64 // POST /jobs round trip
	latency  float64 // submit to terminal, ms
	result   [sha256.Size]byte
}

// do submits one job and waits for it to reach a terminal state.
func (fr *fleetRun) do(req serve.JobRequest, repeat bool) jobOutcome {
	out := jobOutcome{req: req, repeat: repeat}
	body, err := json.Marshal(req)
	if err != nil {
		out.err = err
		return out
	}
	ctx, cancel := context.WithTimeout(context.Background(), jobWait)
	defer cancel()
	t0 := time.Now()
	st, code, err := fr.call(ctx, http.MethodPost, fr.routerURL+"/jobs", body)
	out.submitMS = msSince(t0)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d (%s)", code, st.Error)
	}
	for err == nil && !st.State.Terminal() {
		st, code, err = fr.call(ctx, http.MethodGet, fr.routerURL+"/jobs/"+st.ID+"?wait=1", nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("wait: HTTP %d (%s)", code, st.Error)
		}
	}
	out.latency = msSince(t0)
	if err == nil && st.State != serve.JobDone {
		err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if err == nil {
		var compact bytes.Buffer
		if err = json.Compact(&compact, st.Result); err == nil {
			out.result = sha256.Sum256(compact.Bytes())
		}
	}
	out.err = err
	out.cacheHit = st.CacheHit
	return out
}

func (fr *fleetRun) call(ctx context.Context, method, url string, body []byte) (fleet.JobStatus, int, error) {
	var st fleet.JobStatus
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := fr.client.Do(req)
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, resp.StatusCode, err
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, resp.StatusCode, fmt.Errorf("decode %s %s: %w", method, url, err)
	}
	return st, resp.StatusCode, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// runClients drives the fleet with fleetClients closed-loop clients, each
// submitting perClient jobs from its own generator, and returns every
// outcome.
func (fr *fleetRun) runClients(gens []*specGen, perClient int) []jobOutcome {
	outs := make([][]jobOutcome, len(gens))
	var wg sync.WaitGroup
	for c, g := range gens {
		wg.Add(1)
		go func(c int, g *specGen) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req, repeat := g.next()
				outs[c] = append(outs[c], fr.do(req, repeat))
			}
		}(c, g)
	}
	wg.Wait()
	var all []jobOutcome
	for _, o := range outs {
		all = append(all, o...)
	}
	return all
}

// warmUp runs distinct jobs that no timed stream repeats.
func (fr *fleetRun) warmUp(seed int64) []jobOutcome {
	specs := warmupSpecs(seed, warmupJobs)
	outs := make([]jobOutcome, len(specs))
	var wg sync.WaitGroup
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(specs); i += fleetClients {
				outs[i] = fr.do(specs[i], false)
			}
		}(c)
	}
	wg.Wait()
	return outs
}

// fleetResult is what a fleet workload measured.
type fleetResult struct {
	outcomes    []jobOutcome // every job, warm-up included, for the oracle
	timed       []jobOutcome // the timed rounds' jobs
	setup       []float64
	walls, cpus []float64
	peakRSS     float64
	layers      map[string]metric
	snapshotErr error
}

// fleetRounds is how many rounds a phase of seconds makes at the nominal
// rate, and at least least. A fleet retains every job it ran, so its heap,
// and with it the garbage collector's work per round, grows through a
// run: a fixed number of rounds gives every run the same heap trajectory,
// where a fixed time would let a fast run grow a bigger heap than a slow
// one.
func fleetRounds(seconds float64, least int) int {
	return max(least, int(seconds*roundsPerSecond))
}

// fleetPhase runs rounds timed rounds on fr, recording per-round wall and
// CPU time. The first phase of a run reads the peak RSS after its first
// minRounds rounds.
func fleetPhase(fr *fleetRun, gens []*specGen, rounds int, res *fleetResult) (walls, cpus []float64, timed []jobOutcome, err error) {
	for len(walls) < rounds {
		p := startPhase()
		outs := fr.runClients(gens, roundPerClient)
		wall, cpu := p.end()
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
		timed = append(timed, outs...)
		if len(walls) == minRounds && res.peakRSS == 0 {
			if res.peakRSS, err = peakRSSMB(); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	res.outcomes = append(res.outcomes, timed...)
	return walls, cpus, timed, nil
}

// setUpFleet starts a fleet and warms it up, timing both. journal names
// the journal file, or is empty for a fleet without one.
func setUpFleet(journal string, seed int64, obs *fleetObserver, res *fleetResult) (*fleetRun, float64, error) {
	t0 := time.Now()
	fr, err := startFleet(journal, obs)
	if err != nil {
		return nil, 0, err
	}
	res.outcomes = append(res.outcomes, fr.warmUp(seed)...)
	return fr, time.Since(t0).Seconds(), nil
}

// runFleet measures the fleet workload: set up setups times (the last
// fleet is the one timed), then the closed-loop rounds of seconds, all
// without a journal. The traced run splits its time in three: the plain
// fleet again (the reference for the tracing overhead), an instrumented
// fleet that gives the fleet layers, and an instrumented fleet with a
// journal under scratch that gives the journal layer.
func runFleet(scratch string, seed int64, seconds float64, trace bool) (*fleetResult, error) {
	res := &fleetResult{}
	var fr *fleetRun
	for i := 0; i < setups; i++ {
		if fr != nil {
			if err := fr.close(); err != nil {
				return nil, err
			}
		}
		var d float64
		var err error
		if fr, d, err = setUpFleet("", seed, nil, res); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, d)
	}
	if !trace {
		before := fr.router.Snapshot()
		var err error
		if res.walls, res.cpus, res.timed, err = fleetPhase(fr, newSpecGens(seed), fleetRounds(seconds, minRounds), res); err != nil {
			return nil, errors.Join(err, fr.close())
		}
		res.snapshotErr = checkCounters(before, fr.router.Snapshot(), res.timed)
		return res, fr.close()
	}

	_, plainCPUs, _, err := fleetPhase(fr, newSpecGens(seed), fleetRounds(seconds/3, minRounds), res)
	if err != nil {
		return nil, errors.Join(err, fr.close())
	}
	if err := fr.close(); err != nil {
		return nil, err
	}
	layers, cpus, err := tracedFleet("", seed, seconds/3, res)
	if err != nil {
		return nil, err
	}
	layers["trace.overhead_share"] = metric{median(cpus)/median(plainCPUs) - 1, "share"}

	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "fleet-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	durable, _, err := tracedFleet(filepath.Join(dir, "journal.jsonl"), seed, seconds/3, res)
	if err != nil {
		return nil, err
	}
	for _, n := range []string{"journal.records_per_job", "journal.bytes_per_job", "journal.submit_p50_ms", "journal.latency_p50_ms"} {
		layers[n] = durable[n]
	}
	res.layers = layers
	return res, nil
}

// tracedFleet runs one instrumented fleet, with a journal when journal
// names its file, for the rounds of seconds (at least tracedRounds) and
// returns its per-layer metrics and per-round CPU times. It replays the plain
// phase's traffic: a repeat must name a spec this fleet's cache has seen.
func tracedFleet(journal string, seed int64, seconds float64, res *fleetResult) (map[string]metric, []float64, error) {
	obs := newFleetObserver()
	fr, _, err := setUpFleet(journal, seed, obs, res)
	if err != nil {
		return nil, nil, err
	}
	obs.reset()
	before := fr.router.Snapshot()
	var jBefore fleet.JournalStats
	var jBytes int64
	if fr.journal != nil {
		jBefore, jBytes = fr.journal.Stats(), fileSize(fr.journal.Path())
	}
	rtBefore := sampleRuntime()
	_, cpus, timed, err := fleetPhase(fr, newSpecGens(seed), fleetRounds(seconds, tracedRounds), res)
	if err != nil {
		return nil, nil, errors.Join(err, fr.close())
	}
	rtAfter := sampleRuntime()
	after := fr.router.Snapshot()
	res.snapshotErr = errors.Join(res.snapshotErr, checkCounters(before, after, timed))
	layers, err := fleetLayers(obs, timed, before, after)
	if err != nil {
		return nil, nil, errors.Join(err, fr.close())
	}
	layers["runtime.alloc_mb"] = metric{(rtAfter.allocBytes - rtBefore.allocBytes) / 1e6, "MB"}
	layers["runtime.gc_cpu_s"] = metric{rtAfter.gcCPU - rtBefore.gcCPU, "s"}
	if fr.journal != nil {
		jobs := float64(len(timed))
		js := fr.journal.Stats()
		lat := make([]float64, len(timed))
		for i, o := range timed {
			lat[i] = o.latency
		}
		layers["journal.records_per_job"] = metric{float64(js.Records-jBefore.Records) / jobs, "count"}
		layers["journal.bytes_per_job"] = metric{float64(fileSize(fr.journal.Path())-jBytes) / jobs, "B"}
		layers["journal.submit_p50_ms"] = metric{layers["fleet.submit_p50_ms"].Value, "ms"}
		layers["journal.latency_p50_ms"] = metric{median(lat), "ms"}
	}
	return layers, cpus, fr.close()
}

func newSpecGens(seed int64) []*specGen {
	gens := make([]*specGen, fleetClients)
	for c := range gens {
		gens[c] = newSpecGen(seed, c, fleetClients)
	}
	return gens
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// checkCounters cross-checks the router's own counters over a timed
// phase with what the clients saw: every submission accepted and done,
// none shed, rejected, failed or canceled, and no journal error.
func checkCounters(before, after fleet.Metrics, timed []jobOutcome) error {
	repeats := 0
	for _, o := range timed {
		if o.repeat {
			repeats++
		}
	}
	d := func(a, b int64) int64 { return b - a }
	var errs []error
	if n := d(before.JobsSubmitted, after.JobsSubmitted); n != int64(len(timed)) {
		errs = append(errs, fmt.Errorf("router counted %d submissions, clients made %d", n, len(timed)))
	}
	if n := d(before.JobsDone, after.JobsDone); n != int64(len(timed)) {
		errs = append(errs, fmt.Errorf("router finished %d jobs done of %d", n, len(timed)))
	}
	if n := d(before.CacheServed, after.CacheServed); n != int64(repeats) {
		// Not a failure: every result is still checked byte for byte. The
		// router closes a job's done channel before it fills the cache, so
		// a client that resubmits the spec at once can miss.
		logf("cache served %d jobs, generator repeated %d", n, repeats)
	}
	rejected := d(before.RejectedShed, after.RejectedShed) + d(before.RejectedInvalid, after.RejectedInvalid) +
		d(before.RejectedDraining, after.RejectedDraining) + d(before.RejectedNoReplicas, after.RejectedNoReplicas)
	if rejected != 0 {
		errs = append(errs, fmt.Errorf("router rejected %d submissions", rejected))
	}
	if n := d(before.JobsFailed, after.JobsFailed) + d(before.JobsCanceled, after.JobsCanceled); n != 0 {
		errs = append(errs, fmt.Errorf("router failed or canceled %d jobs", n))
	}
	if after.JournalErrors != before.JournalErrors {
		errs = append(errs, fmt.Errorf("journal append errors: %d", after.JournalErrors-before.JournalErrors))
	}
	return errors.Join(errs...)
}

// verifyFleet is the fleet oracle: every distinct spec the fleet ran is
// run again on a fresh single serve.Server, and every fleet result,
// cached or not, must be byte-identical (after compaction) to it. It
// returns the number of failed jobs: errored (HTTP failures, sheds and
// rejections included), lost, or mismatched.
func verifyFleet(outs []jobOutcome) (int, error) {
	want := make(map[serve.JobRequest][sha256.Size]byte)
	var specs []serve.JobRequest
	for _, o := range outs {
		if _, ok := want[o.req]; !ok {
			want[o.req] = [sha256.Size]byte{}
			specs = append(specs, o.req)
		}
	}
	single := serve.New(serve.Config{})
	defer single.Drain(10 * time.Second)
	sums := make([][sha256.Size]byte, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	const lanes = 4 // well below the server's queue capacity
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := l; i < len(specs); i += lanes {
				sums[i], errs[i] = runSingle(single, specs[i])
			}
		}(l)
	}
	wg.Wait()
	for i, s := range specs {
		if errs[i] != nil {
			return 0, fmt.Errorf("single-node run of %+v: %w", s, errs[i])
		}
		want[s] = sums[i]
	}
	failed := 0
	for _, o := range outs {
		switch {
		case o.err != nil:
			logf("job %+v: %v", o.req, o.err)
		case o.result != want[o.req]:
			logf("job %+v: result differs from a single-node run", o.req)
		default:
			continue
		}
		failed++
	}
	return failed, nil
}

func runSingle(s *serve.Server, req serve.JobRequest) ([sha256.Size]byte, error) {
	st, err := s.Submit(req)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), jobWait)
	defer cancel()
	st, err = s.Wait(ctx, st.ID)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	if st.State != serve.JobDone {
		return [sha256.Size]byte{}, fmt.Errorf("state %s: %s", st.State, st.Error)
	}
	b, err := json.Marshal(st.Result)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(b), nil
}
