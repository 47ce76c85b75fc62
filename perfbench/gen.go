package main

import (
	"math/rand"

	"memsched/internal/serve"
)

// The fleet traffic mix: small jobs, so the router, journal and cache do
// the work rather than the simulator.
var (
	genWorkloads = []string{"matmul2d", "cholesky", "matmul3d"}
	genMinN      = 2
	genMaxN      = 6
	genMaxGPUs   = 2
)

const (
	// repeatEvery makes every 4th submission of a client repeat one of
	// its earlier specs: a 25% cache-read share beside 75% fresh writes,
	// so the latency median stays inside the miss mode.
	repeatEvery = 4
	// repeatWindow is how far back a repeat reaches, in the client's
	// own fresh specs. The closed loop guarantees those jobs finished,
	// and the window is far below the router's cache capacity, so every
	// repeat is a cache hit.
	repeatWindow = 8
	// warmupSeedBase puts warm-up jobs in a seed range the timed stream
	// never reaches, so no warm-up result is ever reused.
	warmupSeedBase = int64(1) << 50
)

// specGen is one client's job stream, reproducible from the run seed.
// Fresh specs carry a seed no other fresh spec of any client carries,
// so they are pairwise distinct; exactly one submission in repeatEvery
// repeats a recent fresh spec of the same client.
type specGen struct {
	rng      *rand.Rand
	client   int
	clients  int
	seedBase int64
	fresh    int64
	issued   int
	recent   []serve.JobRequest
}

// newSpecGen returns client's stream for a run seeded with seed, among
// clients clients.
func newSpecGen(seed int64, client, clients int) *specGen {
	return &specGen{
		rng:      rand.New(rand.NewSource(seed*7919 + int64(client))),
		client:   client,
		clients:  clients,
		seedBase: 1 + (seed%1_000_000)*100_000_000,
	}
}

// next returns the client's next submission and whether it repeats an
// earlier one.
func (g *specGen) next() (serve.JobRequest, bool) {
	g.issued++
	if g.issued%repeatEvery == 0 && len(g.recent) > 0 {
		return g.recent[g.rng.Intn(len(g.recent))], true
	}
	req := randomSpec(g.rng, g.seedBase+g.fresh*int64(g.clients)+int64(g.client))
	g.fresh++
	g.recent = append(g.recent, req)
	if len(g.recent) > repeatWindow {
		g.recent = g.recent[1:]
	}
	return req, false
}

// warmupSpecs returns n distinct specs whose seeds lie outside every
// timed stream.
func warmupSpecs(seed int64, n int) []serve.JobRequest {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]serve.JobRequest, n)
	for i := range specs {
		specs[i] = randomSpec(rng, warmupSeedBase+int64(i))
	}
	return specs
}

func randomSpec(rng *rand.Rand, jobSeed int64) serve.JobRequest {
	return serve.JobRequest{
		Workload: genWorkloads[rng.Intn(len(genWorkloads))],
		N:        genMinN + rng.Intn(genMaxN-genMinN+1),
		GPUs:     1 + rng.Intn(genMaxGPUs),
		Seed:     jobSeed,
	}
}
