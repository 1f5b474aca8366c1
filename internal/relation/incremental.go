// Delta-maintained relationship inference: the windowed passive
// pipeline re-runs AS-relationship inference at every window close, but
// between adjacent windows only a handful of distinct AS paths enter or
// leave the live table. Incremental maintains the batch algorithm's
// aggregates — adjacency, transit-neighbor counts, per-pair orientation
// votes — as refcounted counters, and re-derives only what the window's
// deltas invalidated at Commit: the greedy clique (cheap, O(ASes log
// ASes)), the vote contributions of the paths whose peak moved — a
// path's votes are a pure function of (path, peak), so one cached int
// per live path stands in for its vote list, and a hop changing transit
// degree or clique membership re-votes a path only when it actually
// moves the peak, which below the top of the hierarchy it almost never
// does — and the labels of the links incident to those hops, whose
// degree-ratio refinement reads endpoint degrees. Relationship labels
// are resolved on demand from the maintained counters through the same
// resolveRel the batch Infer uses, so an Incremental that saw AddPath
// for exactly the live path set answers every query identically to a
// fresh Infer over that set.
//
// The counters are split across a fixed number of shards — link-keyed
// state (adjacency, votes, touched set, p2p labels) by link-key hash,
// AS-keyed state (transit pairs, degrees, path index) by ASN hash — so
// Commit can fan its work out on a pool: AddPath/RemovePath only queue
// the transition, and Commit nets the queue, buckets the resulting
// micro-ops per shard in queue order, and applies every shard's bucket
// concurrently. The shard count is a constant, shard assignment is a
// pure hash, and each shard replays its ops in the sequentially
// determined order, so the committed state is bit-identical for any
// worker count — the same discipline as the generator's parallel
// stages. The pure per-path peak recomputation fans out the same way;
// the few paths whose peak moved merge through ordered buckets.
package relation

import (
	"cmp"
	"slices"

	"mlpeering/internal/bgp"
	"mlpeering/internal/par"
	"mlpeering/internal/paths"
	"mlpeering/internal/topology"
)

// relShardCount fixes how many shards split the link- and AS-keyed
// state. It is a constant independent of the worker count, so shard
// assignment — and with it every per-shard op order — never varies
// with parallelism.
const relShardCount = 32

// linkShardOf hashes an unordered pair key to its shard.
func linkShardOf(key topology.LinkKey) int {
	h := uint32(key.A)*0x9E3779B1 ^ uint32(key.B)*0x85EBCA6B
	return int(h >> 27)
}

// asShardOf hashes an AS to its shard.
func asShardOf(a bgp.ASN) int {
	return int(uint32(a) * 0x9E3779B1 >> 27)
}

// transitPair identifies one (interior AS, neighbor) adjacency used for
// transit-degree accounting.
type transitPair struct {
	mid, nbr bgp.ASN
}

// noPeak marks a path that contributes no votes: not live, or shorter
// than two hops.
const noPeak = -1

// votedPath is the per-path vote cache, indexed by path ID: the peak
// the path's committed votes were emitted around (noPeak when it has
// none), and whether the current Commit already queued it for a peak
// recomputation.
type votedPath struct {
	peak   int32
	queued bool
}

// movedPeak is one path whose recomputed peak differs from the cached
// one.
type movedPeak struct {
	id   paths.ID
	peak int32
}

// pathDelta is one queued AddPath/RemovePath transition.
type pathDelta struct {
	id    paths.ID
	delta int
}

// adjOp is one refcount move of a link's adjacency counter.
type adjOp struct {
	key   topology.LinkKey
	delta int
}

// voteOp is one orientation-vote move for a link.
type voteOp struct {
	key      topology.LinkKey
	customer bgp.ASN
	delta    int
}

// transOp is one refcount move of a (mid, nbr) transit pair; mid's
// degree moves with the pair's 0↔1 transitions.
type transOp struct {
	mid, nbr bgp.ASN
	delta    int
}

// byASOp is one membership move of the hop -> live-paths index.
type byASOp struct {
	asn bgp.ASN
	id  paths.ID
	add bool
}

// linkShard owns every link whose key hashes to it: the adjacency
// refcounts, the orientation votes, the set of links touched since the
// last reconcile and the p2p label set. ops buffers are filled
// sequentially in deterministic order and drained by the shard's owner
// during a parallel phase.
type linkShard struct {
	adj     map[topology.LinkKey]int // refcount: paths containing the edge
	votes   map[topology.LinkKey]*vote
	touched map[topology.LinkKey]bool
	p2p     map[topology.LinkKey]bool

	adjOps  []adjOp
	voteOps []voteOp
}

// applyAdj replays the buffered adjacency refcount moves in order.
//
//mlplint:allocfree
func (sh *linkShard) applyAdj() {
	for _, op := range sh.adjOps {
		if c := sh.adj[op.key] + op.delta; c == 0 {
			delete(sh.adj, op.key)
		} else {
			sh.adj[op.key] = c
		}
	}
	sh.adjOps = sh.adjOps[:0]
}

// applyVotes replays the buffered vote moves in order, marking every
// moved link touched so the reconcile pass relabels it.
//
//mlplint:allocfree
func (sh *linkShard) applyVotes() {
	for _, op := range sh.voteOps {
		v := sh.votes[op.key]
		if v == nil {
			//mlplint:allocfree one vote record per link lifetime; steady-state moves hit the cached record
			v = &vote{}
			sh.votes[op.key] = v
		}
		v.add(op.key, op.customer, op.delta)
		if v.empty() {
			delete(sh.votes, op.key)
		}
		sh.touched[op.key] = true
	}
	sh.voteOps = sh.voteOps[:0]
}

// asShard owns every AS whose number hashes to it: transit-pair
// refcounts, the derived transit degrees, the pre-delta degree recorded
// at first touch per Commit, and the hop -> live-paths invalidation
// index.
type asShard struct {
	transit    map[transitPair]int // refcount: paths where mid transits for nbr
	degree     map[bgp.ASN]int     // distinct transit neighbors (len of live pairs)
	touchedDeg map[bgp.ASN]int     // AS -> degree at first touch since last Commit
	pathsByAS  map[bgp.ASN]map[paths.ID]bool

	transOps []transOp
	byASOps  []byASOp
}

// touchDegree records a's pre-delta degree the first time it moves
// inside a Commit cycle, so Commit can tell real changes from churn
// that cancelled out.
func (sh *asShard) touchDegree(a bgp.ASN) {
	if _, ok := sh.touchedDeg[a]; !ok {
		sh.touchedDeg[a] = sh.degree[a]
	}
}

// applyOps replays the buffered transit and path-index moves in order.
//
//mlplint:allocfree
func (sh *asShard) applyOps() {
	for _, op := range sh.transOps {
		p := transitPair{op.mid, op.nbr}
		if op.delta > 0 {
			sh.transit[p]++
			if sh.transit[p] == 1 {
				sh.touchDegree(op.mid)
				sh.degree[op.mid]++
			}
		} else if sh.transit[p]--; sh.transit[p] == 0 {
			delete(sh.transit, p)
			sh.touchDegree(op.mid)
			if sh.degree[op.mid]--; sh.degree[op.mid] == 0 {
				delete(sh.degree, op.mid)
			}
		}
	}
	sh.transOps = sh.transOps[:0]
	for _, op := range sh.byASOps {
		m := sh.pathsByAS[op.asn]
		if op.add {
			if m == nil {
				//mlplint:allocfree one index map per AS first touched; steady-state moves reuse it
				m = make(map[paths.ID]bool)
				sh.pathsByAS[op.asn] = m
			}
			m[op.id] = true
		} else if m != nil {
			delete(m, op.id)
			if len(m) == 0 {
				delete(sh.pathsByAS, op.asn)
			}
		}
	}
	sh.byASOps = sh.byASOps[:0]
}

// Incremental is a delta-maintained relationship inference over the
// distinct paths of an interned store. AddPath/RemovePath queue
// structural deltas; Commit nets and applies them, re-derives the
// clique and re-votes the paths whose peak moved on up to Workers
// goroutines. Queries are only valid after a Commit with no later
// Add/Remove, and answer from the last committed state. Not safe for
// concurrent use.
type Incremental struct {
	store *paths.Store

	// Workers caps the Commit worker pool; 0 means GOMAXPROCS. The
	// committed state is bit-identical for any value.
	Workers int

	links [relShardCount]linkShard
	byAS  [relShardCount]asShard

	voted []votedPath // per-path vote cache, indexed by path ID
	queue []pathDelta // transitions since the last Commit

	clique    []bgp.ASN
	cliqueSet map[bgp.ASN]bool

	// revoted counts the already-voted paths whose peak the last Commit
	// moved (fresh adds and removals not included).
	revoted int

	// Commit scratch.
	net         map[paths.ID]int
	netOrder    []paths.ID
	movedAS     map[bgp.ASN]bool
	cands       []paths.ID
	peakScratch []int32
	moved       []movedPeak
	candScratch []bgp.ASN
}

// NewIncremental returns an empty incremental inference over store.
func NewIncremental(store *paths.Store) *Incremental {
	inc := &Incremental{
		store:     store,
		cliqueSet: make(map[bgp.ASN]bool),
		net:       make(map[paths.ID]int),
		movedAS:   make(map[bgp.ASN]bool),
	}
	for s := range inc.links {
		inc.links[s] = linkShard{
			adj:     make(map[topology.LinkKey]int),
			votes:   make(map[topology.LinkKey]*vote),
			touched: make(map[topology.LinkKey]bool),
			p2p:     make(map[topology.LinkKey]bool),
		}
		inc.byAS[s] = asShard{
			transit:    make(map[transitPair]int),
			degree:     make(map[bgp.ASN]int),
			touchedDeg: make(map[bgp.ASN]int),
			pathsByAS:  make(map[bgp.ASN]map[paths.ID]bool),
		}
	}
	return inc
}

// degreeOf reads an AS's transit degree across the shards.
func (inc *Incremental) degreeOf(a bgp.ASN) int {
	return inc.byAS[asShardOf(a)].degree[a]
}

// adjCount reads a link's adjacency refcount across the shards.
func (inc *Incremental) adjCount(key topology.LinkKey) int {
	return inc.links[linkShardOf(key)].adj[key]
}

// AddPath registers one distinct path as live. The transition is only
// queued: counters move at the next Commit, and queries keep answering
// from the last committed state until then.
func (inc *Incremental) AddPath(id paths.ID) {
	inc.queue = append(inc.queue, pathDelta{id: id, delta: 1})
}

// RemovePath unregisters a live path; like AddPath, the rollback is
// deferred to the next Commit.
func (inc *Incremental) RemovePath(id paths.ID) {
	inc.queue = append(inc.queue, pathDelta{id: id, delta: -1})
}

// enqueue lists a path for this Commit's peak recomputation, once.
func (inc *Incremental) enqueue(id paths.ID) {
	if v := &inc.voted[id]; !v.queued {
		v.queued = true
		inc.cands = append(inc.cands, id)
	}
}

// bucketVotes queues delta times the votes of a path peaking at peak
// into the link shards' vote buckets.
func (inc *Incremental) bucketVotes(path []bgp.ASN, peak int32, delta int) {
	if peak == noPeak {
		return
	}
	emitVotesAround(path, int(peak), func(customer, provider bgp.ASN) {
		key := topology.MakeLinkKey(customer, provider)
		sh := &inc.links[linkShardOf(key)]
		sh.voteOps = append(sh.voteOps, voteOp{key: key, customer: customer, delta: delta})
	})
}

// peakChunk is how many candidate paths one pool task recomputes: large
// enough that the shared task counter is not the bottleneck.
const peakChunk = 256

// Commit applies the queued path transitions and re-derives everything
// they invalidated, reporting whether the oracle's answers can have
// changed (false: nothing was queued, or every queued transition netted
// out — the committed state is untouched). Five ordered phases: (1) net
// the queue — a path that flapped in and out contributes nothing; (2)
// bucket structural micro-ops per shard in queue order and apply every
// shard's bucket concurrently; (3) re-derive the clique from the merged
// degrees (sequential — its greedy scan is inherently ordered); (4)
// recompute the peak of every path that could have moved it — pending
// adds and live paths through an AS whose degree or clique membership
// changed — as a pure per-path computation on the pool, then bucket vote
// moves for exactly the paths whose peak differs from the cached one,
// in ascending id order; (5) apply the vote moves and relabel the
// touched links per shard — those whose votes moved plus those incident
// to a changed AS. Sequential phases fix every order the parallel phases
// replay, so the committed state is identical for any worker count.
// After Commit, queries answer exactly as a batch Infer over the live
// set.
func (inc *Incremental) Commit() (changed bool) {
	if len(inc.queue) == 0 {
		return false
	}
	workers := par.Workers(inc.Workers)

	// Phase 1: net the queued transitions per path id, keeping
	// first-touch order for deterministic bucketing.
	for _, d := range inc.queue {
		if _, ok := inc.net[d.id]; !ok {
			inc.netOrder = append(inc.netOrder, d.id)
		}
		inc.net[d.id] += d.delta
	}
	inc.queue = inc.queue[:0]

	// Phase 2a: bucket structural micro-ops by shard, in netted queue
	// order. A removed path also queues the subtraction of the votes it
	// cast around its cached peak; an added one waits for phase 4.
	inc.cands = inc.cands[:0]
	for _, id := range inc.netOrder {
		delta := inc.net[id]
		if delta == 0 {
			continue
		}
		changed = true
		path := dedupAdjacent(inc.store.Path(id))
		for i := 0; i+1 < len(path); i++ {
			key := topology.MakeLinkKey(path[i], path[i+1])
			sh := &inc.links[linkShardOf(key)]
			sh.adjOps = append(sh.adjOps, adjOp{key: key, delta: delta})
		}
		for i := 1; i+1 < len(path); i++ {
			sh := &inc.byAS[asShardOf(path[i])]
			sh.transOps = append(sh.transOps,
				transOp{mid: path[i], nbr: path[i-1], delta: delta},
				transOp{mid: path[i], nbr: path[i+1], delta: delta})
		}
		for _, a := range path {
			sh := &inc.byAS[asShardOf(a)]
			sh.byASOps = append(sh.byASOps, byASOp{asn: a, id: id, add: delta > 0})
		}
		if delta > 0 {
			for int(id) >= len(inc.voted) {
				inc.voted = append(inc.voted, votedPath{peak: noPeak})
			}
			inc.enqueue(id)
		} else {
			inc.bucketVotes(path, inc.voted[id].peak, -1)
			inc.voted[id].peak = noPeak
		}
	}
	clear(inc.net)
	inc.netOrder = inc.netOrder[:0]
	if !changed {
		return false
	}

	// Phase 2b: apply every shard's structural bucket concurrently.
	// Shards are disjoint and each replays its own deterministic order.
	par.Run(workers, 2*relShardCount, func(t int) {
		if t < relShardCount {
			inc.links[t].applyAdj()
			inc.links[t].applyVotes()
		} else {
			inc.byAS[t-relShardCount].applyOps()
		}
	})

	// Phase 3: re-derive the clique from the merged candidate set. The
	// greedy scan totally orders candidates by (degree desc, ASN asc),
	// so the shard collection order is irrelevant.
	cands := inc.candScratch[:0]
	for s := range inc.byAS {
		//mlplint:ordered greedyCliqueFrom totally orders candidates by (degree desc, ASN asc)
		for a := range inc.byAS[s].degree {
			cands = append(cands, a)
		}
	}
	newClique := greedyCliqueFrom(cands, inc.degreeOf, func(a, b bgp.ASN) bool {
		return inc.adjCount(topology.MakeLinkKey(a, b)) > 0
	})
	inc.candScratch = cands[:0]
	newSet := make(map[bgp.ASN]bool, len(newClique))
	for _, a := range newClique {
		newSet[a] = true
	}

	// Phase 4a: collect the ASes whose peak-relevant inputs moved — a
	// transit degree that actually changed, a clique-membership flip —
	// and queue every live path through one of them beside the pending
	// adds. The queue order is arbitrary: it only feeds the pure
	// per-path computation below.
	movedAS := inc.movedAS
	clear(movedAS)
	for s := range inc.byAS {
		sh := &inc.byAS[s]
		for a, old := range sh.touchedDeg {
			if sh.degree[a] != old {
				movedAS[a] = true
			}
		}
		clear(sh.touchedDeg)
	}
	for _, a := range inc.clique {
		if !newSet[a] {
			movedAS[a] = true
		}
	}
	for _, a := range newClique {
		if !inc.cliqueSet[a] {
			movedAS[a] = true
		}
	}
	inc.clique, inc.cliqueSet = newClique, newSet
	for a := range movedAS {
		//mlplint:ordered candidates feed a pure per-path computation; the paths that moved are sorted by id before anything is bucketed
		for id := range inc.byAS[asShardOf(a)].pathsByAS[a] {
			inc.enqueue(id)
		}
	}

	// Phase 4b: recompute every candidate's peak — a pure function of
	// the path, the new clique and the settled degrees — on the pool.
	ids := inc.cands
	if cap(inc.peakScratch) < len(ids) {
		inc.peakScratch = make([]int32, len(ids))
	}
	peaks := inc.peakScratch[:len(ids)]
	par.Run(workers, (len(ids)+peakChunk-1)/peakChunk, func(c int) {
		for i := c * peakChunk; i < min(len(ids), (c+1)*peakChunk); i++ {
			peaks[i] = noPeak
			if path := dedupAdjacent(inc.store.Path(ids[i])); len(path) >= 2 {
				peaks[i] = int32(pathPeak(path, inc.cliqueSet, inc.degreeOf))
			}
		}
	})

	// Phase 4c: keep the candidates whose peak moved, and bucket their
	// vote moves sequentially in ascending id order — the votes around
	// the old peak out, the votes around the new one in. A candidate
	// whose peak held contributes byte-identical votes and is skipped.
	moved := inc.moved[:0]
	for i, id := range ids {
		inc.voted[id].queued = false
		if peaks[i] != inc.voted[id].peak {
			moved = append(moved, movedPeak{id: id, peak: peaks[i]})
		}
	}
	slices.SortFunc(moved, func(a, b movedPeak) int { return cmp.Compare(a.id, b.id) })
	inc.revoted = 0
	for _, m := range moved {
		v := &inc.voted[m.id]
		if v.peak != noPeak {
			inc.revoted++
		}
		path := dedupAdjacent(inc.store.Path(m.id))
		inc.bucketVotes(path, v.peak, -1)
		inc.bucketVotes(path, m.peak, 1)
		v.peak = m.peak
	}
	inc.moved = moved[:0]

	// Phase 5: apply the vote moves and reconcile the p2p labels per
	// link shard. A link's label reads its votes, its endpoints' clique
	// membership and — in resolveRel's degree-ratio refinement — their
	// transit degrees, so the links to relabel are those a vote move
	// touched plus every link incident to a moved AS. Links outside
	// both sets kept all of their label's inputs, so their label is
	// unchanged by construction.
	par.Run(workers, relShardCount, func(s int) {
		sh := &inc.links[s]
		sh.applyVotes()
		if len(movedAS) > 0 {
			for key := range sh.adj {
				if movedAS[key.A] || movedAS[key.B] {
					sh.touched[key] = true
				}
			}
		}
		for key := range sh.touched {
			if sh.adj[key] > 0 && resolveRel(key, sh.votes[key], inc.cliqueSet, inc.degreeOf) == RelP2P {
				sh.p2p[key] = true
			} else {
				delete(sh.p2p, key)
			}
		}
		clear(sh.touched)
	})
	return true
}

// Relationship returns the pair's relationship from a's perspective,
// resolved on demand from the maintained counters.
func (inc *Incremental) Relationship(a, b bgp.ASN) Rel {
	key := topology.MakeLinkKey(a, b)
	sh := &inc.links[linkShardOf(key)]
	if sh.adj[key] == 0 {
		return RelUnknown
	}
	r := resolveRel(key, sh.votes[key], inc.cliqueSet, inc.degreeOf)
	if a == key.A {
		return r
	}
	switch r {
	case RelC2P:
		return RelP2C
	case RelP2C:
		return RelC2P
	default:
		return r
	}
}

// LinkCount returns the number of inferred links (adjacent pairs).
func (inc *Incremental) LinkCount() int {
	n := 0
	for s := range inc.links {
		n += len(inc.links[s].adj)
	}
	return n
}

// P2PCount returns the number of p2p-labelled links, maintained as a
// delta counter: Commit relabels only the links its deltas touched.
// Like every query, it is only valid after a Commit with no later
// AddPath/RemovePath.
func (inc *Incremental) P2PCount() int {
	n := 0
	for s := range inc.links {
		n += len(inc.links[s].p2p)
	}
	return n
}

// ForEachLink calls fn for every inferred link until fn returns false,
// resolving each label on demand. Iteration order is undefined.
func (inc *Incremental) ForEachLink(fn func(topology.LinkKey, Rel) bool) {
	for s := range inc.links {
		sh := &inc.links[s]
		for key := range sh.adj {
			if !fn(key, resolveRel(key, sh.votes[key], inc.cliqueSet, inc.degreeOf)) {
				return
			}
		}
	}
}

// Clique returns the current transit-free clique.
func (inc *Incremental) Clique() []bgp.ASN {
	return append([]bgp.ASN(nil), inc.clique...)
}

// voteCount, transitCount, degreeCount and touchedCount sum the sharded
// maps; they exist for the drain assertions in tests.
func (inc *Incremental) voteCount() int {
	n := 0
	for s := range inc.links {
		n += len(inc.links[s].votes)
	}
	return n
}

func (inc *Incremental) transitCount() int {
	n := 0
	for s := range inc.byAS {
		n += len(inc.byAS[s].transit)
	}
	return n
}

func (inc *Incremental) degreeCount() int {
	n := 0
	for s := range inc.byAS {
		n += len(inc.byAS[s].degree)
	}
	return n
}

func (inc *Incremental) touchedCount() int {
	n := 0
	for s := range inc.links {
		n += len(inc.links[s].touched)
	}
	return n
}
