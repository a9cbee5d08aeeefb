package simplex

// devexTree is a tournament tree over the columns for Devex pricing.
// Leaf j holds column j's score d_j²/w_j when j may enter the basis
// (−1 otherwise) and its Devex weight when j is nonbasic (0 when
// basic). Each internal node holds the winner below it — the highest
// score, the left child on ties — and the largest weight. Leaves are in
// index order, so the root names exactly the column an ascending scan
// for the first maximum would pick, and the Devex weight maximum over
// the nonbasic columns.
//
// A pivot changes a few leaves. setLeaf queues a leaf's parent and
// flush recomputes every queued node and then its parent, level by
// level, so an ancestor shared by many changed leaves is recomputed
// once per flush rather than once per leaf.
type devexTree struct {
	size  int       // leaf count, a power of two
	score []float64 // per node; leaf k lives at node size+k
	best  []int32   // per node: winning column, -1 for none
	maxW  []float64 // per node
	queue []int32   // nodes to recompute, all on one level
	next  []int32
	stamp []uint32 // per node: gen of the flush it was last queued for
	gen   uint32
}

// reset readies t, or a new tree when t is nil, for n columns: the
// leaves past n, which no column stores, hold −1/−1/0, and no node is
// queued or stamped. The other nodes are stored and rebuilt before
// their first read.
func (t *devexTree) reset(n int) *devexTree {
	if t == nil {
		t = new(devexTree)
	}
	t.size = 2 // the root is node 1 even for a single column
	for t.size < n {
		t.size *= 2
	}
	t.score = resize(t.score, 2*t.size)
	t.best = resize(t.best, 2*t.size)
	t.maxW = resize(t.maxW, 2*t.size)
	for k := t.size + n; k < 2*t.size; k++ {
		t.score[k], t.best[k], t.maxW[k] = -1, -1, 0
	}
	t.stamp = zeroed(t.stamp, t.size)
	t.gen = 1
	t.queue, t.next = t.queue[:0], t.next[:0]
	return t
}

// store writes column j's score (−1 when j cannot enter) and weight
// without queueing its ancestors; rebuild follows a wholesale store.
func (t *devexTree) store(j int, score, w float64) {
	k := t.size + j
	t.score[k], t.maxW[k] = score, w
	t.best[k] = -1
	if score > 0 {
		t.best[k] = int32(j)
	}
}

// setLeaf is store for a single leaf: it queues the leaf's parent for
// the next flush.
func (t *devexTree) setLeaf(j int, score, w float64) {
	t.store(j, score, w)
	if p := int32((t.size + j) >> 1); t.stamp[p] != t.gen {
		t.stamp[p] = t.gen
		t.queue = append(t.queue, p)
	}
}

// pull recomputes internal node p from its children.
func (t *devexTree) pull(p int32) {
	l, r := 2*p, 2*p+1
	if t.score[r] > t.score[l] {
		t.score[p], t.best[p] = t.score[r], t.best[r]
	} else {
		t.score[p], t.best[p] = t.score[l], t.best[l]
	}
	t.maxW[p] = max(t.maxW[l], t.maxW[r])
}

// flush brings every ancestor of the leaves set since the last flush
// up to date.
func (t *devexTree) flush() {
	for len(t.queue) > 0 {
		next := t.next[:0]
		for _, p := range t.queue {
			t.pull(p)
			if pp := p >> 1; pp > 0 && t.stamp[pp] != t.gen {
				t.stamp[pp] = t.gen
				next = append(next, pp)
			}
		}
		t.queue, t.next = next, t.queue
	}
	t.gen++
}

// rebuild recomputes every internal node after the leaves were
// stored wholesale.
func (t *devexTree) rebuild() {
	for p := int32(t.size - 1); p > 0; p-- {
		t.pull(p)
	}
	t.queue = t.queue[:0]
	t.gen++
}

// root reports the winning column (−1 when no column may enter) and the
// largest nonbasic Devex weight.
func (t *devexTree) root() (best int, maxW float64) {
	t.flush()
	return int(t.best[1]), t.maxW[1]
}
