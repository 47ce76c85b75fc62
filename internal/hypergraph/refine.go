package hypergraph

import "slices"

// bisection holds the mutable state of a 2-way partition under refinement.
type bisection struct {
	h     *Hypergraph
	part  []int      // 0 or 1 per vertex
	partW [2]int64   // current side weights
	maxW  [2]int64   // balance caps
	pins  [][2]int32 // per net: pins on each side

	// fmPass state, sized on the first pass and reused by later ones.
	gains  []int64 // exact gain of moving each unlocked vertex
	locked []bool
	moves  []int32
	heap   passHeap
}

func newBisection(h *Hypergraph, part []int, maxW [2]int64) *bisection {
	b := &bisection{h: h, part: part, maxW: maxW}
	b.pins = make([][2]int32, h.NumNets())
	for v, p := range part {
		b.partW[p] += h.VertexWeight(v)
	}
	for n := 0; n < h.NumNets(); n++ {
		for _, p := range h.Net(n) {
			b.pins[n][part[p]]++
		}
	}
	return b
}

// gain returns the cut reduction obtained by moving v to the other side.
func (b *bisection) gain(v int) int64 {
	from := b.part[v]
	to := 1 - from
	var g int64
	for _, ni := range b.h.Incidence(v) {
		n := int(ni)
		w := b.h.NetWeight(n)
		if b.pins[n][from] == 1 {
			g += w // net becomes uncut
		}
		if b.pins[n][to] == 0 {
			g -= w // net becomes cut
		}
	}
	return g
}

// move transfers v to the other side, updating side weights, pin counts
// and, while an FM pass keeps gains, the gains of the other pins (v's
// own entry goes stale: a moved vertex is locked for the rest of the
// pass).
//
// A move from side F to side T changes another pin's gain only on a
// critical net, one where before the move F holds at most two pins or T
// at most one: the net turns cut (T was empty), a pin becomes or stops
// being the last one of its side, or F empties.
func (b *bisection) move(v int) {
	from := b.part[v]
	to := 1 - from
	b.part[v] = to
	w := b.h.VertexWeight(v)
	b.partW[from] -= w
	b.partW[to] += w
	for _, ni := range b.h.Incidence(v) {
		pins := &b.pins[ni]
		nf, nt := pins[from], pins[to]
		pins[from]--
		pins[to]++
		if b.gains == nil || (nf > 2 && nt > 1) {
			continue
		}
		nw := b.h.netWeights[ni]
		var dFrom, dTo int64
		if nt == 0 {
			dFrom += nw // moving a from pin no longer cuts the net
		}
		if nf == 2 {
			dFrom += nw // the other from pin is now the last one
		}
		if nt == 1 {
			dTo -= nw // the to pin is no longer the last one
		}
		if nf == 1 {
			dTo -= nw // F empties: moving a to pin would cut the net
		}
		for _, u := range b.h.nets[ni] {
			if b.part[u] == from {
				b.gains[u] += dFrom
			} else {
				b.gains[u] += dTo
			}
		}
	}
}

func (b *bisection) cut() int64 {
	var c int64
	for n := 0; n < b.h.NumNets(); n++ {
		if b.pins[n][0] > 0 && b.pins[n][1] > 0 {
			c += b.h.NetWeight(n)
		}
	}
	return c
}

func (b *bisection) feasible() bool {
	return b.partW[0] <= b.maxW[0] && b.partW[1] <= b.maxW[1]
}

// rebalance greedily moves vertices out of an overweight side, choosing
// at each step the vertex whose move loses the least cut, until both
// sides respect their caps (or no move can help). Returns ops performed.
//
// Each step depends on the partition alone, so a partition seen before
// means the moves cycle forever (two vertices can overload the other
// side in turn). Brent's cycle detection stops that with one saved
// partition, compared after each move.
func (b *bisection) rebalance() int64 {
	var ops int64
	var saved []int
	power, steps := 1, 0
	for !b.feasible() {
		if saved == nil {
			saved = slices.Clone(b.part)
		}
		from := 0
		if b.partW[1] > b.maxW[1] {
			from = 1
		}
		to := 1 - from
		best, bestGain := -1, int64(-1<<62)
		for v := range b.part {
			if b.part[v] != from {
				continue
			}
			if b.partW[to]+b.h.VertexWeight(v) > b.maxW[to] && b.partW[from]-b.h.VertexWeight(v) >= b.partW[to] {
				// Moving would just swap which side is overweight
				// without making progress.
				continue
			}
			g := b.gain(v)
			ops += int64(len(b.h.Incidence(v)))
			if g > bestGain {
				best, bestGain = v, g
			}
		}
		if best < 0 {
			return ops
		}
		b.move(best)
		ops += int64(len(b.h.Incidence(best)))
		if slices.Equal(b.part, saved) {
			return ops
		}
		if steps++; steps == power {
			copy(saved, b.part)
			power, steps = 2*power, 0
		}
	}
	return ops
}

// passHeap is an addressable 4-ary max-heap holding at most one entry
// per vertex, ordered by key descending and vertex ascending on ties.
// The order is total (vertices are distinct), so the pop sequence does
// not depend on the heap's shape.
type passHeap struct {
	a   []int32 // heap array of vertices
	pos []int32 // heap index of each vertex, -1 when absent
	key []int64 // key of each vertex while present
}

func (q *passHeap) before(u, v int32) bool {
	if q.key[u] != q.key[v] {
		return q.key[u] > q.key[v]
	}
	return u < v
}

func (q *passHeap) up(i int) {
	v := q.a[i]
	for i > 0 {
		p := (i - 1) >> 2
		pv := q.a[p]
		if !q.before(v, pv) {
			break
		}
		q.a[i], q.pos[pv] = pv, int32(i)
		i = p
	}
	q.a[i], q.pos[v] = v, int32(i)
}

func (q *passHeap) down(i int) {
	n := len(q.a)
	v := q.a[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		for c := first + 1; c < min(first+4, n); c++ {
			if q.before(q.a[c], q.a[best]) {
				best = c
			}
		}
		bv := q.a[best]
		if !q.before(bv, v) {
			break
		}
		q.a[i], q.pos[bv] = bv, int32(i)
		i = best
	}
	q.a[i], q.pos[v] = v, int32(i)
}

// set gives v the key k, inserting v if it is absent.
func (q *passHeap) set(v int32, k int64) {
	i := int(q.pos[v])
	if i < 0 {
		q.key[v] = k
		q.a = append(q.a, v)
		q.up(len(q.a) - 1)
		return
	}
	old := q.key[v]
	q.key[v] = k
	if k > old {
		q.up(i)
	} else if k < old {
		q.down(i)
	}
}

func (q *passHeap) pop() int32 {
	v := q.a[0]
	q.pos[v] = -1
	last := len(q.a) - 1
	q.a[0] = q.a[last]
	q.a = q.a[:last]
	if last > 0 {
		q.down(0)
	}
	return v
}

// startPass sizes the pass buffers on first use, unlocks every vertex,
// sets every gain from the pin counts and puts every vertex in the heap.
func (b *bisection) startPass() {
	n := b.h.NumVertices()
	if b.gains == nil {
		b.gains = make([]int64, n)
		b.locked = make([]bool, n)
		b.heap = passHeap{a: make([]int32, 0, n), pos: make([]int32, n), key: make([]int64, n)}
		for v := range b.heap.pos {
			b.heap.pos[v] = -1 // a pass ends with the heap empty
		}
	}
	clear(b.gains)
	clear(b.locked)
	b.moves = b.moves[:0]
	for ni, net := range b.h.nets {
		w := b.h.netWeights[ni]
		pins := b.pins[ni]
		for _, u := range net {
			s := b.part[u]
			if pins[s] == 1 {
				b.gains[u] += w
			}
			if pins[1-s] == 0 {
				b.gains[u] -= w
			}
		}
	}
	for v, g := range b.gains {
		b.heap.set(int32(v), g)
	}
}

// fmPass runs one Fiduccia–Mattheyses pass: vertices are tentatively moved
// in best-gain-first order under the balance caps, each at most once, and
// the best prefix of the move sequence is kept. Returns the cut
// improvement of the pass and the ops charged for it.
//
// Every unlocked vertex has at most one heap entry, and gains are kept
// exact by delta updates on critical nets. The move order and the ops are
// those of a pass that recomputes gains from scratch, including three of
// its rules:
//   - a popped vertex that the balance cap forbids to move leaves the
//     heap until a later move refreshes it;
//   - a move refreshes the key of the unlocked pins of its nets with at
//     most maxNetSizeForMatching pins only; a vertex reached only through
//     bigger nets keeps its old key, but its move applies its exact gain;
//   - ops charge the pin traversals of those recomputations: the degree
//     of every vertex at the start, the mover's degree per move, and the
//     degree of each refreshed pin once per small net it shares with the
//     mover.
func (b *bisection) fmPass() (improved int64, ops int64) {
	b.startPass()
	ops = int64(b.h.NumPins())
	var cum, bestCum int64
	bestIdx := 0 // number of moves of the best prefix

	for len(b.heap.a) > 0 {
		v := b.heap.pop()
		to := 1 - b.part[v]
		if b.partW[to]+b.h.VertexWeight(int(v)) > b.maxW[to] {
			continue // cannot move under balance
		}
		inc := b.h.Incidence(int(v))
		ops += int64(len(inc))
		cum += b.gains[v]
		b.locked[v] = true
		b.move(int(v))
		b.moves = append(b.moves, v)
		if cum > bestCum {
			bestCum = cum
			bestIdx = len(b.moves)
		}
		for _, ni := range inc {
			net := b.h.nets[ni]
			if len(net) > maxNetSizeForMatching {
				continue
			}
			for _, u := range net {
				if !b.locked[u] {
					ops += int64(len(b.h.Incidence(int(u))))
					b.heap.set(u, b.gains[u])
				}
			}
		}
	}
	// Roll back moves beyond the best prefix. The next pass recomputes
	// every gain, so the rollback skips their upkeep.
	gains := b.gains
	b.gains = nil
	for i := len(b.moves) - 1; i >= bestIdx; i-- {
		b.move(int(b.moves[i]))
	}
	b.gains = gains
	return bestCum, ops
}

// runPass is the pass refine runs; tests swap in the reference pass.
var runPass = (*bisection).fmPass

// refine runs FM passes until a pass yields no improvement, up to
// maxPasses, after an initial rebalance. Returns ops performed.
func (b *bisection) refine(maxPasses int) int64 {
	ops := b.rebalance()
	for i := 0; i < maxPasses; i++ {
		improved, passOps := runPass(b)
		ops += passOps
		if improved <= 0 {
			break
		}
	}
	return ops
}
