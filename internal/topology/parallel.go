package topology

import (
	"math/rand"

	"mlpeering/internal/ixp"
	"mlpeering/internal/par"
)

// This file is the parallel per-IXP stage runner. Per-IXP generation
// work (membership sampling, filter synthesis, session wiring) is
// expressed as a pure compute function plus a commit closure:
//
//   - compute receives an independent, deterministic random stream
//     derived from (stage, IXP name) and may only READ builder state
//     that is fixed before the stage starts. It returns a commit.
//   - commits are applied sequentially in IXP order after every compute
//     finished.
//
// Because no compute observes another IXP's mutations and commits run
// in a fixed order, the generated world is bit-identical whether the
// computes run on one goroutine or many — pinned by the scenario
// fingerprint tests.

// fanOut runs n per-IXP computes on the shared worker pool
// (GOMAXPROCS wide) and applies their commits in index order. name(i)
// keys the (stage, IXP) random stream, so a stage's draws for one IXP
// do not depend on how many other IXPs exist or which worker picked the
// task up.
func (b *Builder) fanOut(stage string, n int, name func(int) string, compute func(rng *rand.Rand, i int) func()) {
	commits := make([]func(), n)
	par.Run(n, func(i int) {
		commits[i] = compute(b.StageIXPRNG(stage, name(i)), i)
	})
	for _, c := range commits {
		if c != nil {
			c()
		}
	}
}

// fanOutIXPs is fanOut over the already-built b.IXPs.
func (b *Builder) fanOutIXPs(stage string, compute func(rng *rand.Rand, xi int) func()) {
	b.fanOut(stage, len(b.IXPs), func(i int) string { return b.IXPs[i].Name }, compute)
}

// denseScratch is per-worker working memory for dense-id stage
// algorithms: two mark planes over the AS slab and a traversal stack.
// Obtain via Builder.scratch, return via Builder.release; marks must be
// handed back clean (clear via the visited lists the helpers return).
type denseScratch struct {
	marks   []bool // customer-cone plane
	member  []bool // membership plane
	stack   []int32
	visited []int32 // reusable visited-id buffer for cone walks
}

func (b *Builder) scratch() *denseScratch {
	s := b.scratchPool.Get().(*denseScratch)
	n := len(b.recs)
	if cap(s.marks) < n {
		s.marks = make([]bool, n)
		s.member = make([]bool, n)
	}
	s.marks = s.marks[:n]
	s.member = s.member[:n]
	return s
}

func (b *Builder) release(s *denseScratch) { b.scratchPool.Put(s) }

// clearMarks resets the given positions of a mark plane.
func clearMarks(plane []bool, visited []int32) {
	for _, i := range visited {
		plane[i] = false
	}
}

// markCustomerCone marks the dense ids of the customer cone of root
// in plane and returns the visited ids appended to visited, for
// clearing. The cone is root itself plus everything reachable by
// repeatedly following customer edges (the definition of [32] used in
// §5.5); the walk allocates nothing once the scratch has grown.
func (b *Builder) markCustomerCone(root int32, s *denseScratch, visited []int32) []int32 {
	stack := append(s.stack[:0], root)
	plane := s.marks
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if plane[i] {
			continue
		}
		plane[i] = true
		visited = append(visited, i)
		for _, c := range b.recs[i].Customers {
			if ci, ok := b.byASN[c]; ok && !plane[ci] {
				stack = append(stack, ci)
			}
		}
	}
	s.stack = stack[:0]
	return visited
}

// fenwick is a Fenwick (binary indexed) tree over float64 weights with
// point updates, prefix totals and O(log n) inverse-CDF lookup. It
// replaces the O(k·n) linear re-scans of the weighted samplers, which
// dominated generation at 10-100x scale.
type fenwick struct {
	tree []float64 // 1-based
	mask int       // highest power of two <= n
}

func newFenwick(n int) *fenwick {
	mask := 1
	for mask<<1 <= n {
		mask <<= 1
	}
	return &fenwick{tree: make([]float64, n+1), mask: mask}
}

// build bulk-loads weights in O(n).
func (f *fenwick) build(weights []float64) {
	t := f.tree
	for i := range t {
		t[i] = 0
	}
	for i, w := range weights {
		t[i+1] += w
		if p := i + 1 + (i+1)&-(i+1); p < len(t) {
			t[p] += t[i+1]
		}
	}
}

// Add adds delta at 0-based index i.
func (f *fenwick) Add(i int, delta float64) {
	for j := i + 1; j < len(f.tree); j += j & -j {
		f.tree[j] += delta
	}
}

// Total returns the sum of all weights.
func (f *fenwick) Total() float64 {
	n := len(f.tree) - 1
	total := 0.0
	for j := n; j > 0; j -= j & -j {
		total += f.tree[j]
	}
	return total
}

// Find returns the smallest 0-based index whose prefix sum (inclusive)
// exceeds x: exactly the item a linear scan subtracting weights until
// x <= 0 would select. x must be in [0, Total()); values at or beyond
// the total clamp to the last index.
func (f *fenwick) Find(x float64) int {
	idx := 0
	n := len(f.tree) - 1
	for bit := f.mask; bit > 0; bit >>= 1 {
		if next := idx + bit; next <= n && f.tree[next] <= x {
			x -= f.tree[next]
			idx = next
		}
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// regionWeight is one row of a regional skew table.
type regionWeight struct {
	r ixp.Region
	w int
}

// pickWeightedRegion draws one region proportionally to the table's
// weights, consuming a single Intn.
func pickWeightedRegion(rng *rand.Rand, dist []regionWeight) ixp.Region {
	total := 0
	for _, rd := range dist {
		total += rd.w
	}
	x := rng.Intn(total)
	for _, rd := range dist {
		if x < rd.w {
			return rd.r
		}
		x -= rd.w
	}
	return ixp.RegionWestEU
}

// weightedSampleIDs draws k distinct items from pool proportionally to
// weights, consuming one rng draw per selection like its linear
// predecessor but selecting through a Fenwick tree: O(n + k log n)
// instead of O(k·n).
func weightedSampleIDs(rng *rand.Rand, pool []int32, weights []float64, k int) []int32 {
	if k > len(pool) {
		k = len(pool)
	}
	f := newFenwick(len(weights))
	f.build(weights)
	w := append([]float64(nil), weights...)
	out := make([]int32, 0, k)
	for len(out) < k {
		total := f.Total()
		if total <= 1e-12 {
			break
		}
		i := f.Find(rng.Float64() * total)
		if w[i] <= 0 {
			break // numeric residue only: no positive weight remains
		}
		out = append(out, pool[i])
		f.Add(i, -w[i])
		w[i] = 0
	}
	return out
}
