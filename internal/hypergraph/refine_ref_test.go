package hypergraph

// The FM pass as it was before the one-entry-per-vertex heap: a lazily
// invalidated heap that pushes a fresh entry, with a gain recomputed from
// scratch, for every unlocked pin of every small net of each moved vertex.
// It is kept here as the reference the production pass must match move
// for move, Stats.Ops included.

// refEntry is a lazily invalidated max-heap entry of the reference pass.
type refEntry struct {
	gain int64
	v    int
	gen  int32
}

// before orders entries best-gain-first, vertex index ascending on ties.
func (a refEntry) before(o refEntry) bool {
	if a.gain != o.gain {
		return a.gain > o.gain
	}
	return a.v < o.v
}

// refHeap is a 4-ary max-heap of reference entries.
type refHeap struct {
	a []refEntry
}

func (h *refHeap) len() int { return len(h.a) }

func (h *refHeap) push(e refEntry) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !h.a[i].before(h.a[p]) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *refHeap) pop() refEntry {
	top := h.a[0]
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a = h.a[:n]
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.a[c].before(h.a[best]) {
				best = c
			}
		}
		if !h.a[best].before(h.a[i]) {
			break
		}
		h.a[i], h.a[best] = h.a[best], h.a[i]
		i = best
	}
	return top
}

// fmPassReference is the reference FM pass. Returns the cut improvement
// of the pass and the ops it charges.
func (b *bisection) fmPassReference() (improved int64, ops int64) {
	n := b.h.NumVertices()
	locked := make([]bool, n)
	gen := make([]int32, n)
	gh := refHeap{a: make([]refEntry, 0, n)}
	for v := 0; v < n; v++ {
		gh.push(refEntry{gain: b.gain(v), v: v})
		ops += int64(len(b.h.Incidence(v)))
	}

	var moves []int
	var cum, bestCum int64
	bestIdx := 0 // number of moves of the best prefix

	for gh.len() > 0 {
		e := gh.pop()
		if locked[e.v] || e.gen != gen[e.v] {
			continue
		}
		from := b.part[e.v]
		to := 1 - from
		if b.partW[to]+b.h.VertexWeight(e.v) > b.maxW[to] {
			continue // cannot move under balance; entry consumed
		}
		g := b.gain(e.v)
		ops += int64(len(b.h.Incidence(e.v)))
		b.move(e.v)
		locked[e.v] = true
		cum += g
		moves = append(moves, e.v)
		if cum > bestCum {
			bestCum = cum
			bestIdx = len(moves)
		}
		// Refresh neighbors whose gain may have changed.
		for _, ni := range b.h.Incidence(e.v) {
			net := b.h.Net(int(ni))
			if len(net) > maxNetSizeForMatching {
				continue
			}
			for _, u := range net {
				if !locked[u] {
					gen[u]++
					ng := b.gain(int(u))
					ops += int64(len(b.h.Incidence(int(u))))
					gh.push(refEntry{gain: ng, v: int(u), gen: gen[u]})
				}
			}
		}
	}
	// Roll back moves beyond the best prefix.
	for i := len(moves) - 1; i >= bestIdx; i-- {
		b.move(moves[i])
	}
	return bestCum, ops
}
