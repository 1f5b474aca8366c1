// Package propagate computes BGP route propagation over the synthetic
// topology: for every destination AS it builds the Gao-Rexford routing
// tree (customer routes up, one peer hop — bilateral or via a route
// server — then down to customers), tracks where route-server
// communities are attached, and reconstructs the routes any vantage
// point would see, including whether communities survive to it.
//
// This is the substrate that stands in for the live Internet: collector
// archives, looking-glass output and the public AS-path view are all
// derived from these trees.
//
// The engine is built for bulk tree computation: adjacency is stored as
// flat compressed-sparse-row arrays sorted once at construction, route
// server filter pairs are precomputed into bitsets, and per-destination
// working memory comes from reusable scratch arenas, so computing one
// tree performs no sorting and near-zero allocation.
//
// Trees are swept, not kept: every reader walks the destinations it
// needs through ForEachTree or ForEachTreeOf, over the vantages whose
// routes it reads, and a sweep computes only what those vantages can
// see. Engine.Tree computes one complete, uncached tree: the reference
// the sweeps are tested against.
package propagate

import (
	"math/bits"
	"slices"
	"sync"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
	"mlpeering/internal/par"
	"mlpeering/internal/topology"
)

// Class ranks how a route was learned, in increasing preference.
type Class uint8

// Route classes. Higher is preferred (standard local-pref policy).
const (
	ClassNone     Class = iota // no route
	ClassProvider              // learned from a provider
	ClassPeer                  // learned from a peer (bilateral or RS)
	ClassCustomer              // learned from a customer
	ClassOrigin                // self-originated
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassProvider:
		return "provider"
	case ClassPeer:
		return "peer"
	case ClassCustomer:
		return "customer"
	case ClassOrigin:
		return "origin"
	default:
		return "none"
	}
}

const (
	noVia int32 = -1
	noIXP int16 = -1
)

// hop is one AS's state in a routing tree.
type hop struct {
	via       int32 // next-hop AS index toward the destination
	viaIXP    int16 // index into Engine.ixps when the edge is via an RS
	bilateral bool  // the edge is a bilateral peer edge
	class     Class
	dist      uint16
}

// csr is a compressed-sparse-row adjacency list: every node's neighbor
// list, concatenated into one backing array. Node i's neighbors are
// adj[off[i]:off[i+1]], sorted ascending at build time so traversal
// order is deterministic without any per-tree sorting.
type csr struct {
	off []int32
	adj []int32
}

func (c *csr) row(i int32) []int32 { return c.adj[c.off[i]:c.off[i+1]] }

// closure marks roots and everything reachable from them over c in
// mark, which may already carry marks.
func (c *csr) closure(mark []bool, roots []int32) {
	stack := make([]int32, 0, len(roots))
	for _, r := range roots {
		if !mark[r] {
			mark[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range c.row(u) {
			if !mark[v] {
				mark[v] = true
				stack = append(stack, v)
			}
		}
	}
}

// ixpState is one IXP's route-server configuration in dense,
// member-slot-indexed form. A "slot" is a member's position in the
// ascending-ASN member list; slotOf maps AS index -> slot (-1 when the
// AS is not an RS member here).
type ixpState struct {
	info    *ixp.Info
	members []int32 // AS indices, ascending (== ascending ASN)
	slotOf  []int32 // dense AS index -> member slot, -1 if not a member

	// hasPolicy marks the slots whose member holds a policy record;
	// pols holds the records by slot.
	hasPolicy []bool
	pols      []topology.RSPolicy

	// allowed is a per-exporter bitset over importer slots: bit v of row
	// e is set iff member e's export filter allows member v AND member
	// v's import filter allows member e (and v != e). It folds the two
	// record lookups and two filter evaluations of the member-pair inner
	// loop into a single word scan.
	allowed []uint64
	words   int // words per bitset row: ceil(len(members)/64)
}

// allowedBit reports whether exporter slot e may send to importer slot v.
func (st *ixpState) allowedBit(e, v int32) bool {
	return st.allowed[int(e)*st.words+int(v)>>6]&(1<<(uint(v)&63)) != 0
}

// scratch is the per-worker arena reused across tree computations:
// frontier queues for the BFS phases, the score table, and distance
// buckets for the downward phase. It never escapes a single compute
// call.
type scratch struct {
	frontier []int32
	next     []int32
	inNext   []bool
	scores   []uint64
	buckets  [][]int32
}

// Route preference packed into one comparable word, so every relaxation
// is a single load and compare. Higher score = more preferred, with the
// fields laid out in the engine's preference order:
//
//	bits 49..51  class (higher better)
//	bit  48      bilateral, set only when the node prefers bilateral
//	bits 32..47  ^dist (lower distance better)
//	bits  0..31  ^via  (lower next-hop index breaks ties)
//
// A strictly greater score is exactly the old field-by-field "better"
// comparison; equality keeps the incumbent.
const (
	scoreClassShift = 49
	scoreBilBit     = uint64(1) << 48
	scoreDistShift  = 32
	// noRouteScore is the score of the initial "no route" state:
	// class None, dist 0, via noVia.
	noRouteScore = uint64(0xFFFF) << scoreDistShift
)

// Engine computes routing trees for a fixed topology and keeps none of
// them (see the package doc). It is safe for concurrent use.
type Engine struct {
	topo *topology.Topology

	idx  map[bgp.ASN]int32
	asns []bgp.ASN

	up      csr // providers plus siblings: customer routes travel here
	down    csr // customers plus siblings
	peers   csr
	strips  []bool
	prefBil []bool

	ixps       []*ixpState
	ixpsByName map[string]int16

	scratchPool sync.Pool
	treePool    sync.Pool

	// change is what the most recent Apply mutated, for Vantages.Visible.
	// Written only by Apply, which holds exclusive access by contract.
	change changeSet
}

// NewEngine builds an engine over topo. The second argument is
// ignored: the engine caches no trees.
func NewEngine(topo *topology.Topology, _ int) *Engine {
	n := len(topo.Order)
	e := &Engine{
		topo:       topo,
		asns:       make([]bgp.ASN, n),
		strips:     make([]bool, n),
		prefBil:    make([]bool, n),
		ixpsByName: make(map[string]int16),
	}
	copy(e.asns, topo.Order)
	e.idx = make(map[bgp.ASN]int32, n)
	for i, asn := range topo.Order {
		e.idx[asn] = int32(i)
		as := topo.ASes[asn]
		e.strips[i] = as.StripsCommunities
		e.prefBil[i] = as.PrefersBilateral
	}

	// Flat CSR adjacency, each row sorted ascending once here so the
	// propagation phases never sort again.
	e.up = e.buildCSR(func(as *topology.AS) ([]bgp.ASN, []bgp.ASN) { return as.Providers, as.Siblings })
	e.down = e.buildCSR(func(as *topology.AS) ([]bgp.ASN, []bgp.ASN) { return as.Customers, as.Siblings })
	e.peers = e.buildCSR(func(as *topology.AS) ([]bgp.ASN, []bgp.ASN) { return as.Peers, nil })

	for _, info := range topo.IXPs {
		st := e.buildIXPState(info)
		e.ixpsByName[info.Name] = int16(len(e.ixps))
		e.ixps = append(e.ixps, st)
	}

	e.scratchPool.New = func() any {
		return &scratch{inNext: make([]bool, n), scores: make([]uint64, n)}
	}
	e.treePool.New = func() any { return e.newTree() }
	return e
}

// buildCSR assembles one flat adjacency over the engine's topology,
// each row sorted ascending so the propagation phases never sort.
func (e *Engine) buildCSR(pick func(*topology.AS) ([]bgp.ASN, []bgp.ASN)) csr {
	topo := e.topo
	n := len(topo.Order)
	c := csr{off: make([]int32, n+1)}
	var buf []int32
	for i, asn := range topo.Order {
		a, b := pick(topo.ASes[asn])
		buf = buf[:0]
		for _, x := range a {
			if j, ok := e.idx[x]; ok {
				buf = append(buf, j)
			}
		}
		for _, x := range b {
			if j, ok := e.idx[x]; ok {
				buf = append(buf, j)
			}
		}
		slices.Sort(buf)
		c.adj = append(c.adj, buf...)
		c.off[i+1] = int32(len(c.adj))
	}
	return c
}

// buildIXPState assembles one IXP's dense route-server state (member
// slots, filters, communities, allowed-pair bitsets) from the current
// ground truth. Called at construction and again by Apply for IXPs a
// delta mutated.
func (e *Engine) buildIXPState(info *ixp.Info) *ixpState {
	topo := e.topo
	n := len(e.asns)
	st := &ixpState{info: info, slotOf: make([]int32, n)}
	for i := range st.slotOf {
		st.slotOf[i] = -1
	}
	for _, m := range info.SortedRSMembers() {
		mi, ok := e.idx[m]
		if !ok {
			continue
		}
		st.slotOf[mi] = int32(len(st.members))
		st.members = append(st.members, mi)
	}
	nm := len(st.members)
	st.hasPolicy = make([]bool, nm)
	st.pols = make([]topology.RSPolicy, nm)
	for s, mi := range st.members {
		st.pols[s], st.hasPolicy[s] = topo.Policy(info.Name, e.asns[mi])
	}
	// Precompute the allowed-pair bitsets.
	st.words = (nm + 63) / 64
	st.allowed = make([]uint64, nm*st.words)
	for es := 0; es < nm; es++ {
		if !st.hasPolicy[es] {
			continue
		}
		ef := st.pols[es].Export
		eASN := e.asns[st.members[es]]
		row := st.allowed[es*st.words : (es+1)*st.words]
		for vs := 0; vs < nm; vs++ {
			if vs == es || !st.hasPolicy[vs] {
				continue
			}
			vASN := e.asns[st.members[vs]]
			if ef.Allows(vASN) && st.pols[vs].Import.Allows(eASN) {
				row[vs>>6] |= 1 << (uint(vs) & 63)
			}
		}
	}
	return st
}

// newTree allocates a tree with its own backing arrays.
//
//mlplint:frozen
func (e *Engine) newTree() *Tree {
	return &Tree{
		e:      e,
		hops:   make([]hop, len(e.asns)),
		expOff: make([]int32, len(e.ixps)+1),
	}
}

// Topology returns the engine's world.
func (e *Engine) Topology() *topology.Topology { return e.topo }

// Tree computes the complete routing tree toward dest, or returns nil
// for an unknown destination. Nothing is cached: every call computes a
// fresh tree, which the caller owns. It is the full-tree reference the
// sweeps are tested against; a reader that needs only some vantages'
// routes sweeps them instead (ForEachTreeOf).
func (e *Engine) Tree(dest bgp.ASN) *Tree {
	di, ok := e.idx[dest]
	if !ok {
		return nil
	}
	t := e.newTree()
	s := e.scratchPool.Get().(*scratch)
	e.compute(di, t, s, &e.down, nil)
	e.scratchPool.Put(s)
	return t
}

// ForEachTree computes the tree of every destination in ascending ASN
// order on the shared worker pool (GOMAXPROCS wide, see par.Run),
// invoking fn sequentially on the caller's goroutine (fn needs no
// locking); what fn sees does not depend on the pool's width. The
// *Tree passed to fn is only valid for the duration of the call: its
// buffers are recycled for later destinations, so fn must copy out
// anything it wants to keep. A caller with several per-tree consumers
// feeds them all from one fn (see pipeline.BuildWorld): the sweep is
// the cost, not the consuming.
//
// fn runs while the pool computes the next window of trees, so fn must
// write nothing the computation reads: the engine's topology, its state
// and the Vantages.
//
// A sweep computes what its vantages can see. Customer-, peer- and
// origin-class hops are exact everywhere, so every route-server
// exporter and its route are too; provider-class hops are computed
// only inside v's closure (the vantages and their provider/sibling
// ancestors), which is all a vantage's route or Adj-RIB-In can reach.
// Reading a route the sweep did not compute panics (see
// Tree.RouteFromArena); v must name every AS fn reads routes from.
func (e *Engine) ForEachTree(v *Vantages, fn func(*Tree)) {
	e.ForEachTreeOf(v, e.asns, fn)
}

// sweepWindow is how many trees a sweep computes per batch: memory
// stays bounded at two windows (one being consumed, one computing)
// while fn consumes trees in destination order.
const sweepWindow = 256

// ForEachTreeOf is ForEachTree restricted to dests: fn sees their trees
// in the order listed, under the same contract (vantages and the
// overlap with the next window included). Unknown ASNs are skipped.
func (e *Engine) ForEachTreeOf(v *Vantages, dests []bgp.ASN, fn func(*Tree)) {
	if v.e != e {
		panic("propagate: ForEachTree with another engine's Vantages")
	}
	take := func() []bgp.ASN {
		batch := dests[:min(len(dests), sweepWindow)]
		dests = dests[len(batch):]
		return batch
	}
	// done is closed when the window computing while fn drains is
	// complete; the deferred wait keeps an fn that panics (or exits its
	// goroutine) from leaving that computation running.
	var done chan struct{}
	defer func() {
		if done != nil {
			<-done
		}
	}()
	cur, next := make([]*Tree, min(len(dests), sweepWindow)), []*Tree(nil)
	batch := take()
	e.computeWindow(v, batch, cur)
	for len(batch) > 0 {
		following := take()
		if len(following) == 0 {
			e.drainWindow(cur[:len(batch)], fn)
			return
		}
		// Double buffer: the pool fills the other window while fn
		// drains this one on the caller's goroutine.
		if next == nil {
			next = make([]*Tree, sweepWindow)
		}
		done = make(chan struct{})
		go func(batch []bgp.ASN, out []*Tree, done chan struct{}) {
			defer close(done)
			e.computeWindow(v, batch, out)
		}(following, next, done)
		e.drainWindow(cur[:len(batch)], fn)
		<-done
		done = nil
		cur, next, batch = next, cur, following
	}
}

// computeWindow computes the trees of batch into out[:len(batch)] on
// the shared pool, leaving nil where a destination is unknown.
func (e *Engine) computeWindow(v *Vantages, batch []bgp.ASN, out []*Tree) {
	if len(batch) == 0 {
		return
	}
	par.Run(len(batch), func(i int) {
		di, ok := e.idx[batch[i]]
		if !ok {
			return
		}
		s := e.scratchPool.Get().(*scratch)
		t := e.treePool.Get().(*Tree)
		e.compute(di, t, s, &v.down, v.above)
		e.scratchPool.Put(s)
		out[i] = t
	})
}

// drainWindow hands each computed tree of out to fn in order, then
// recycles it.
func (e *Engine) drainWindow(out []*Tree, fn func(*Tree)) {
	for i, t := range out {
		if t == nil {
			continue
		}
		fn(t)
		e.treePool.Put(t)
		out[i] = nil
	}
}

// compute fills t with the routing tree toward the destination at index
// di, using s as working memory. Phase 3 relaxes down, the engine's
// down adjacency or a Vantages' restriction of it to the closure above,
// which t keeps (nil for a full tree) so its accessors can tell an
// uncomputed hop from a missing route. Every phase resolves ties by lowest
// next-hop index, so the result is independent of visit order and no
// frontier or bucket ever needs sorting. Relaxations compare packed
// preference scores (see scoreClassShift): cand > scores[v] is exactly
// the engine's class / bilateral-quirk / distance / next-hop order.
//
// compute is the sanctioned builder for frozen Trees, and the packed
// relaxation loops are the hottest path in the repo: steady-state
// (arena-warm) calls must not allocate.
//
//mlplint:frozen
//mlplint:allocfree
func (e *Engine) compute(di int32, t *Tree, s *scratch, down *csr, above []bool) {
	n := len(e.asns)
	t.dest = e.asns[di]
	t.above = above
	if cap(t.hops) < n {
		//mlplint:allocfree grow-only: fires once when the topology outgrew the tree
		t.hops = make([]hop, n)
	}
	t.hops = t.hops[:n]
	hops := t.hops
	for i := range hops {
		hops[i] = hop{via: noVia, viaIXP: noIXP}
	}
	scores := s.scores
	for i := range scores {
		scores[i] = noRouteScore
	}
	hops[di] = hop{via: noVia, viaIXP: noIXP, class: ClassOrigin, dist: 0}
	scores[di] = uint64(ClassOrigin)<<scoreClassShift | noRouteScore

	// Phase 1: customer routes propagate up provider (and sibling)
	// edges, breadth first. A node's final via is the minimum-index
	// parent at its discovery level, so frontier order cannot change the
	// outcome.
	upOff, upAdj := e.up.off, e.up.adj
	frontier := append(s.frontier[:0], di)
	next := s.next[:0]
	inNext := s.inNext
	for dist := uint16(1); len(frontier) > 0; dist++ {
		next = next[:0]
		base := uint64(ClassCustomer)<<scoreClassShift | uint64(^dist)<<scoreDistShift
		for _, u := range frontier {
			cand := base | uint64(^uint32(u))
			for _, p := range upAdj[upOff[u]:upOff[u+1]] {
				sc := scores[p]
				if cand <= sc {
					continue
				}
				wasRouted := Class(sc>>scoreClassShift) == ClassCustomer
				hops[p] = hop{via: u, viaIXP: noIXP, class: ClassCustomer, dist: dist}
				scores[p] = cand
				if !wasRouted && !inNext[p] {
					inNext[p] = true
					next = append(next, p)
				}
			}
		}
		for _, p := range next {
			inNext[p] = false
		}
		frontier, next = next, frontier
	}
	s.frontier, s.next = frontier, next

	// Phase 2a: bilateral peer edges, one hop.
	peerOff, peerAdj := e.peers.off, e.peers.adj
	for u := int32(0); u < int32(n); u++ {
		if Class(scores[u]>>scoreClassShift) < ClassCustomer {
			continue
		}
		d := hops[u].dist + 1
		base := uint64(ClassPeer)<<scoreClassShift | uint64(^d)<<scoreDistShift | uint64(^uint32(u))
		for _, v := range peerAdj[peerOff[u]:peerOff[u+1]] {
			cand := base
			if e.prefBil[v] {
				cand |= scoreBilBit
			}
			if cand > scores[v] {
				hops[v] = hop{via: u, viaIXP: noIXP, bilateral: true, class: ClassPeer, dist: d}
				scores[v] = cand
			}
		}
	}

	// Phase 2b: route servers. Members with customer/origin routes
	// export them to the RS; every member whose filters line up (one
	// precomputed bitset row per exporter) receives a peer-class route.
	// The exporter list per IXP is kept on the tree, flat, for RS-RIB
	// construction. Netnod-style community-stripping servers still
	// reflect routes; only the communities are gone, handled at
	// reconstruction.
	if cap(t.expOff) < len(e.ixps)+1 {
		//mlplint:allocfree grow-only: fires once when IXPs were added under the tree
		t.expOff = make([]int32, len(e.ixps)+1)
	}
	t.expOff = t.expOff[:len(e.ixps)+1]
	expFlat := t.expFlat[:0]
	for xi, st := range e.ixps {
		t.expOff[xi] = int32(len(expFlat))
		for _, m := range st.members {
			if Class(scores[m]>>scoreClassShift) >= ClassCustomer {
				expFlat = append(expFlat, m)
			}
		}
		for _, eIdx := range expFlat[t.expOff[xi]:] {
			es := st.slotOf[eIdx]
			if !st.hasPolicy[es] {
				continue
			}
			d := hops[eIdx].dist + 1
			cand := uint64(ClassPeer)<<scoreClassShift | uint64(^d)<<scoreDistShift | uint64(^uint32(eIdx))
			row := st.allowed[int(es)*st.words : (int(es)+1)*st.words]
			for w, word := range row {
				for word != 0 {
					b := bits.TrailingZeros64(word)
					word &^= 1 << b
					v := st.members[w<<6|b]
					if cand > scores[v] {
						hops[v] = hop{via: eIdx, viaIXP: int16(xi), class: ClassPeer, dist: d}
						scores[v] = cand
					}
				}
			}
		}
	}
	t.expOff[len(e.ixps)] = int32(len(expFlat))
	t.expFlat = expFlat

	// Phase 3: everything propagates down customer (and sibling) edges,
	// processed in distance buckets. The initial fill walks indexes
	// ascending so each bucket starts sorted, and skips nodes with no
	// down edge, which relax nothing (tested first: in a sweep's
	// restricted adjacency almost every row is empty). Relaxations only
	// ever push into strictly later buckets, and a node's final via is
	// again the minimum-index parent, so processing order is immaterial.
	downOff, downAdj := down.off, down.adj
	buckets := s.buckets
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	for i := int32(0); i < int32(n); i++ {
		if downOff[i] != downOff[i+1] && hops[i].class != ClassNone {
			d := int(hops[i].dist)
			for len(buckets) <= d {
				buckets = append(buckets, nil)
			}
			buckets[d] = append(buckets[d], i)
		}
	}
	for d := 0; d < len(buckets); d++ {
		for _, u := range buckets[d] {
			if int(hops[u].dist) != d || hops[u].class == ClassNone {
				continue // stale queue entry
			}
			nd := uint16(d) + 1
			base := uint64(ClassProvider)<<scoreClassShift | uint64(^nd)<<scoreDistShift | uint64(^uint32(u))
			for _, c := range downAdj[downOff[u]:downOff[u+1]] {
				if base > scores[c] {
					hops[c] = hop{via: u, viaIXP: noIXP, class: ClassProvider, dist: nd}
					scores[c] = base
					for len(buckets) <= int(nd) {
						buckets = append(buckets, nil)
					}
					buckets[nd] = append(buckets[nd], c)
				}
			}
		}
	}
	s.buckets = buckets
}
