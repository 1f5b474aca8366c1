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
package relation

import (
	"cmp"
	"slices"

	"mlpeering/internal/bgp"
	"mlpeering/internal/paths"
	"mlpeering/internal/topology"
)

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
// none), the AS at that hop, whether it is the path's only clique hop,
// and whether the current Commit already queued the path for a peak
// recomputation.
type votedPath struct {
	peak       int32
	peakAS     bgp.ASN
	soleClique bool
	queued     bool
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

// Incremental is a delta-maintained relationship inference over the
// distinct paths of an interned store. AddPath/RemovePath queue
// structural deltas; Commit nets and applies them, re-derives the
// clique and re-votes the paths whose peak moved. Queries are only
// valid after a Commit with no later Add/Remove, and answer from the
// last committed state. Not safe for concurrent use.
type Incremental struct {
	store *paths.Store

	adj     map[topology.LinkKey]int // refcount: paths containing the edge
	votes   map[topology.LinkKey]*vote
	touched map[topology.LinkKey]bool // links to relabel at the end of Commit
	p2p     map[topology.LinkKey]bool
	flipped map[topology.LinkKey]bool // links whose p2p label the last Commit flipped

	transit    map[transitPair]int           // refcount: paths where mid transits for nbr
	degree     map[bgp.ASN]int               // distinct transit neighbors (len of live pairs)
	touchedDeg map[bgp.ASN]int               // AS -> degree at first touch since last Commit
	pathsByAS  map[bgp.ASN]map[paths.ID]bool // live paths through each AS
	byPeak     map[bgp.ASN]map[paths.ID]bool // live paths by their peak hop

	voted []votedPath // per-path vote cache, indexed by path ID
	queue []pathDelta // transitions since the last Commit

	clique    []bgp.ASN
	cliqueSet map[bgp.ASN]bool

	// revoted counts the already-voted paths whose peak the last Commit
	// moved (fresh adds and removals not included).
	revoted int

	// Commit scratch.
	net       map[paths.ID]int
	netOrder  []paths.ID
	movedAS   map[bgp.ASN]rank // moved AS -> its rank before the move
	relabelAS map[bgp.ASN]bool
	cands     []paths.ID
	moved     []movedPeak
}

// NewIncremental returns an empty incremental inference over store.
func NewIncremental(store *paths.Store) *Incremental {
	return &Incremental{
		store:      store,
		adj:        make(map[topology.LinkKey]int),
		votes:      make(map[topology.LinkKey]*vote),
		touched:    make(map[topology.LinkKey]bool),
		p2p:        make(map[topology.LinkKey]bool),
		flipped:    make(map[topology.LinkKey]bool),
		transit:    make(map[transitPair]int),
		degree:     make(map[bgp.ASN]int),
		touchedDeg: make(map[bgp.ASN]int),
		pathsByAS:  make(map[bgp.ASN]map[paths.ID]bool),
		byPeak:     make(map[bgp.ASN]map[paths.ID]bool),
		cliqueSet:  make(map[bgp.ASN]bool),
		net:        make(map[paths.ID]int),
		movedAS:    make(map[bgp.ASN]rank),
		relabelAS:  make(map[bgp.ASN]bool),
	}
}

// degreeOf reads an AS's transit degree.
func (inc *Incremental) degreeOf(a bgp.ASN) int { return inc.degree[a] }

// rank orders the hops of a path for its peak: clique members above
// the rest, then higher transit degree (see pathPeak).
type rank struct {
	clique bool
	degree int
}

// above reports whether r ranks strictly above o.
func (r rank) above(o rank) bool {
	if r.clique != o.clique {
		return r.clique
	}
	return r.degree > o.degree
}

// rankOf is a's current rank.
func (inc *Incremental) rankOf(a bgp.ASN) rank { return rank{inc.cliqueSet[a], inc.degree[a]} }

// setPeak caches path id's peak, moving the path between the byPeak
// sets.
func (inc *Incremental) setPeak(id paths.ID, path []bgp.ASN, peak int32) {
	v := &inc.voted[id]
	if v.peak != noPeak {
		unindexPath(inc.byPeak, v.peakAS, id)
	}
	if v.peak = peak; peak != noPeak {
		v.peakAS = path[peak]
		indexPath(inc.byPeak, v.peakAS, id)
	}
}

// indexPath and unindexPath maintain an AS -> path set index.
func indexPath(idx map[bgp.ASN]map[paths.ID]bool, a bgp.ASN, id paths.ID) {
	m := idx[a]
	if m == nil {
		m = make(map[paths.ID]bool)
		idx[a] = m
	}
	m[id] = true
}

func unindexPath(idx map[bgp.ASN]map[paths.ID]bool, a bgp.ASN, id paths.ID) {
	if m := idx[a]; m != nil {
		delete(m, id)
		if len(m) == 0 {
			delete(idx, a)
		}
	}
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

// addVotes moves delta times the votes of a path peaking at peak,
// marking every moved link touched so the end of Commit relabels it.
func (inc *Incremental) addVotes(path []bgp.ASN, peak int32, delta int) {
	if peak == noPeak {
		return
	}
	emitVotesAround(path, int(peak), func(customer, provider bgp.ASN) {
		key := topology.MakeLinkKey(customer, provider)
		v := inc.votes[key]
		if v == nil {
			v = &vote{}
			inc.votes[key] = v
		}
		v.add(key, customer, delta)
		if v.empty() {
			delete(inc.votes, key)
		}
		inc.touched[key] = true
	})
}

// touchDegree records a's pre-delta degree the first time it moves
// inside a Commit cycle, so Commit can tell real changes from churn
// that cancelled out.
func (inc *Incremental) touchDegree(a bgp.ASN) {
	if _, ok := inc.touchedDeg[a]; !ok {
		inc.touchedDeg[a] = inc.degree[a]
	}
}

// addTransit moves the (mid, nbr) transit-pair refcount by delta; mid's
// degree moves with the pair's 0↔1 transitions.
func (inc *Incremental) addTransit(mid, nbr bgp.ASN, delta int) {
	p := transitPair{mid, nbr}
	c := inc.transit[p] + delta
	if c == 0 {
		delete(inc.transit, p)
	} else {
		inc.transit[p] = c
	}
	if c != max(delta, 0) {
		return // the pair was live before and after
	}
	inc.touchDegree(mid)
	if d := inc.degree[mid] + delta; d == 0 {
		delete(inc.degree, mid)
	} else {
		inc.degree[mid] = d
	}
}

// Commit applies the queued path transitions and re-derives everything
// they invalidated, reporting whether the oracle's answers can have
// changed (false: nothing was queued, or every queued transition netted
// out — the committed state is untouched). Four ordered phases: (1) net
// the queue — a path that flapped in and out contributes nothing — and
// apply each netted path's adjacency, transit and path-index moves; (2)
// re-derive the clique from the degrees; (3) recompute the peak of
// every path whose peak a changed degree or clique membership can have
// moved — pending adds, paths through an AS that flipped or rose, and
// the peaks a fallen AS held — and move the votes of exactly the paths
// whose peak differs from the cached one, in ascending id order; (4)
// relabel the touched links — those whose votes moved plus those
// incident to an AS whose move their label can see. After Commit,
// queries answer exactly as a batch Infer over the live set.
func (inc *Incremental) Commit() (changed bool) {
	clear(inc.flipped)
	if len(inc.queue) == 0 {
		return false
	}

	// Phase 1: net the queued transitions per path id, keeping
	// first-touch order, then apply them in that order. A removed path
	// also takes back the votes it cast around its cached peak; an added
	// one waits for phase 3.
	for _, d := range inc.queue {
		if _, ok := inc.net[d.id]; !ok {
			inc.netOrder = append(inc.netOrder, d.id)
		}
		inc.net[d.id] += d.delta
	}
	inc.queue = inc.queue[:0]
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
			if c := inc.adj[key] + delta; c == 0 {
				delete(inc.adj, key)
			} else {
				inc.adj[key] = c
			}
		}
		for i := 1; i+1 < len(path); i++ {
			inc.addTransit(path[i], path[i-1], delta)
			inc.addTransit(path[i], path[i+1], delta)
		}
		for _, a := range path {
			if delta > 0 {
				indexPath(inc.pathsByAS, a, id)
			} else {
				unindexPath(inc.pathsByAS, a, id)
			}
		}
		if delta > 0 {
			for int(id) >= len(inc.voted) {
				inc.voted = append(inc.voted, votedPath{peak: noPeak})
			}
			inc.enqueue(id)
		} else {
			inc.addVotes(path, inc.voted[id].peak, -1)
			inc.setPeak(id, path, noPeak)
		}
	}
	clear(inc.net)
	inc.netOrder = inc.netOrder[:0]
	if !changed {
		return false
	}

	// Phase 2: re-derive the clique.
	newClique := greedyClique(inc.degree, func(a, b bgp.ASN) bool {
		return inc.adj[topology.MakeLinkKey(a, b)] > 0
	})
	newSet := make(map[bgp.ASN]bool, len(newClique))
	for _, a := range newClique {
		newSet[a] = true
	}

	// Phase 3a: collect the ASes whose peak-relevant inputs moved — a
	// transit degree that actually changed, a clique-membership flip —
	// with their rank before the move, and queue the live paths whose
	// peak one of them can move beside the pending adds. A hop's rank is
	// its clique membership, then its transit degree; the peak is the
	// first hop of the highest rank, and hops that did not move kept
	// theirs. The queue order is arbitrary: the paths whose peak moved
	// are sorted by id before any vote moves.
	movedAS := inc.movedAS
	clear(movedAS)
	for a, old := range inc.touchedDeg {
		if inc.degree[a] != old {
			movedAS[a] = rank{inc.cliqueSet[a], old}
		}
	}
	clear(inc.touchedDeg)
	for _, a := range inc.clique {
		if _, ok := movedAS[a]; !ok && !newSet[a] {
			movedAS[a] = rank{true, inc.degree[a]}
		}
	}
	for _, a := range newClique {
		if _, ok := movedAS[a]; !ok && !inc.cliqueSet[a] {
			movedAS[a] = rank{false, inc.degree[a]}
		}
	}
	inc.clique, inc.cliqueSet = newClique, newSet
	//mlplint:ordered candidates feed a pure per-path computation; the paths that moved are sorted by id before any vote moves
	for a, old := range movedAS {
		ra := inc.rankOf(a)
		switch {
		case old.clique != ra.clique:
			// A flip queues every path through a, which also keeps the
			// cached sole-clique-hop flags true.
			for id := range inc.pathsByAS[a] {
				inc.enqueue(id)
			}
		case old.above(ra):
			// A fallen hop stays below every peak it did not hold, and a
			// path's only clique hop outranks the others whatever its
			// degree.
			for id := range inc.byPeak[a] {
				if !ra.clique || !inc.voted[id].soleClique {
					inc.enqueue(id)
				}
			}
		default:
			// A risen hop can take the peaks it now reaches. A peak hop
			// that fell queues its own paths above.
			for id := range inc.pathsByAS[a] {
				if v := inc.voted[id]; !v.queued && v.peak != noPeak && v.peakAS != a && !inc.rankOf(v.peakAS).above(ra) {
					inc.enqueue(id)
				}
			}
		}
	}

	// Phase 3b: recompute every candidate's peak — a pure function of
	// the path, the new clique and the settled degrees — keep those that
	// moved, and move their votes in ascending id order: the votes
	// around the old peak out, the votes around the new one in. A
	// candidate whose peak held contributes byte-identical votes and is
	// skipped.
	moved := inc.moved[:0]
	for _, id := range inc.cands {
		v := &inc.voted[id]
		v.queued = false
		peak := int32(noPeak)
		if path := dedupAdjacent(inc.store.Path(id)); len(path) >= 2 {
			q, n := pathPeak(path, inc.cliqueSet, inc.degreeOf)
			peak, v.soleClique = int32(q), n == 1
		}
		if peak != v.peak {
			moved = append(moved, movedPeak{id: id, peak: peak})
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
		inc.addVotes(path, v.peak, -1)
		inc.addVotes(path, m.peak, 1)
		inc.setPeak(m.id, path, m.peak)
	}
	inc.moved = moved[:0]

	// Phase 4: reconcile the p2p labels. A link's label reads its votes,
	// its endpoints' clique membership and — in resolveRel's
	// degree-ratio refinement — their transit degrees, so the links to
	// relabel are those a vote move touched plus every link incident to
	// a moved AS whose move the label can see: a clique flip, or a
	// degree the refinement reads before or after the move. Links
	// outside both sets kept all of their label's inputs, so their label
	// is unchanged by construction.
	relabel := inc.relabelAS
	clear(relabel)
	for a, old := range movedAS {
		if r := inc.rankOf(a); r.clique != old.clique || refinable(old.clique, old.degree) || refinable(r.clique, r.degree) {
			relabel[a] = true
		}
	}
	if len(relabel) > 0 {
		for key := range inc.adj {
			if relabel[key.A] || relabel[key.B] {
				inc.touched[key] = true
			}
		}
	}
	for key := range inc.touched {
		p2p := inc.adj[key] > 0 && resolveRel(key, inc.votes[key], inc.cliqueSet, inc.degreeOf) == RelP2P
		if p2p == inc.p2p[key] {
			continue
		}
		inc.flipped[key] = true
		if p2p {
			inc.p2p[key] = true
		} else {
			delete(inc.p2p, key)
		}
	}
	clear(inc.touched)
	return true
}

// Relationship returns the pair's relationship from a's perspective,
// resolved on demand from the maintained counters.
func (inc *Incremental) Relationship(a, b bgp.ASN) Rel {
	key := topology.MakeLinkKey(a, b)
	if inc.adj[key] == 0 {
		return RelUnknown
	}
	r := resolveRel(key, inc.votes[key], inc.cliqueSet, inc.degreeOf)
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
func (inc *Incremental) LinkCount() int { return len(inc.adj) }

// P2PCount returns the number of p2p-labelled links, maintained as a
// delta counter: Commit relabels only the links its deltas touched.
// Like every query, it is only valid after a Commit with no later
// AddPath/RemovePath.
func (inc *Incremental) P2PCount() int { return len(inc.p2p) }

// P2PFlipped reports whether the last Commit flipped the pair's p2p
// label.
func (inc *Incremental) P2PFlipped(a, b bgp.ASN) bool { return inc.flipped[topology.MakeLinkKey(a, b)] }

// P2PFlips counts the pairs whose p2p label the last Commit flipped.
func (inc *Incremental) P2PFlips() int { return len(inc.flipped) }

// ForEachLink calls fn for every inferred link until fn returns false,
// resolving each label on demand. Iteration order is undefined.
func (inc *Incremental) ForEachLink(fn func(topology.LinkKey, Rel) bool) {
	for key := range inc.adj {
		if !fn(key, resolveRel(key, inc.votes[key], inc.cliqueSet, inc.degreeOf)) {
			return
		}
	}
}

// Clique returns the current transit-free clique.
func (inc *Incremental) Clique() []bgp.ASN {
	return append([]bgp.ASN(nil), inc.clique...)
}
