package main

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"memsched/internal/fleet"
)

// fleetObserver times the fleet's layers from outside: the router's
// dispatch client (POST /jobs to a replica) through a RoundTripper on
// fleet.Config.HTTPClient, and the replicas' long-poll handlers (GET
// /jobs/{id}?wait=1, which return once the job has queued and run)
// through a wrapper around serve.Server.Handler.
type fleetObserver struct {
	mu         sync.Mutex
	dispatchMS []float64
	handlerMS  []float64
}

func newFleetObserver() *fleetObserver { return &fleetObserver{} }

// reset drops what set-up and warm-up recorded.
func (o *fleetObserver) reset() {
	o.mu.Lock()
	o.dispatchMS, o.handlerMS = nil, nil
	o.mu.Unlock()
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func (o *fleetObserver) wrapTransport(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.Method != http.MethodPost || r.URL.Path != "/jobs" {
			return next.RoundTrip(r)
		}
		t0 := time.Now()
		resp, err := next.RoundTrip(r)
		d := msSince(t0)
		o.mu.Lock()
		o.dispatchMS = append(o.dispatchMS, d)
		o.mu.Unlock()
		return resp, err
	})
}

func (o *fleetObserver) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, "/jobs/") || r.URL.Query().Get("wait") == "" {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := msSince(t0)
		o.mu.Lock()
		o.handlerMS = append(o.handlerMS, d)
		o.mu.Unlock()
	})
}

// fleetLayers derives the per-layer fleet metrics of a traced phase from
// the observer, the client-side outcomes and the router's counters.
func fleetLayers(o *fleetObserver, timed []jobOutcome, before, after fleet.Metrics) (map[string]metric, error) {
	var submit, hits, misses []float64
	repeats := 0
	for _, out := range timed {
		if out.repeat {
			repeats++
		}
		submit = append(submit, out.submitMS)
		if out.cacheHit {
			hits = append(hits, out.latency)
		} else {
			misses = append(misses, out.latency)
		}
	}
	o.mu.Lock()
	dispatch := append([]float64(nil), o.dispatchMS...)
	handler := append([]float64(nil), o.handlerMS...)
	o.mu.Unlock()

	jobs := float64(len(timed))
	m := map[string]metric{
		"fleet.submit_p50_ms":        {median(submit), "ms"},
		"fleet.hit_latency_p50_ms":   {median(hits), "ms"},
		"fleet.miss_latency_p50_ms":  {median(misses), "ms"},
		"fleet.dispatch_p50_ms":      {median(dispatch), "ms"},
		"fleet.dispatches_per_job":   {ratio(float64(len(dispatch)), float64(len(misses))), "count"},
		"serve.handler_p50_ms":       {median(handler), "ms"},
		"fleet.cache_hit_share":      {ratio(float64(after.CacheServed-before.CacheServed), float64(after.JobsSubmitted-before.JobsSubmitted)), "share"},
		"fleet.repeat_share":         {float64(repeats) / jobs, "share"},
		"fleet.hedges_per_job":       {float64(after.HedgesStarted-before.HedgesStarted) / jobs, "count"},
		"fleet.redispatches_per_job": {float64(after.Failovers-before.Failovers) / jobs, "count"},
	}
	var err error
	if m["fleet.miss_latency_p99_ms"], err = tailMetric("fleet.miss_latency_p99_ms", misses, 0.99, "ms"); err != nil {
		return nil, err
	}
	if m["fleet.dispatch_p99_ms"], err = tailMetric("fleet.dispatch_p99_ms", dispatch, 0.99, "ms"); err != nil {
		return nil, err
	}
	for name, v := range m {
		if v.Value != v.Value {
			return nil, fmt.Errorf("%s: no samples", name)
		}
	}
	return m, nil
}

func tailMetric(name string, samples []float64, q float64, unit string) (metric, error) {
	v, err := tailQuantile(name, samples, q)
	return metric{v, unit}, err
}
