// Package relation infers AS business relationships from observed BGP
// AS paths, in the spirit of the CAIDA AS-Rank algorithm the paper
// relies on ([32]): clique detection at the top of the hierarchy,
// transit degrees, and per-path vote assignment around the path's
// "peak". It also computes customer cones and customer degrees, used
// for RS-setter disambiguation (§4.2 case 3), the stub analysis of
// Fig. 7, and the repeller analysis of §5.5.
package relation

import (
	"cmp"
	"slices"
	"sort"

	"mlpeering/internal/bgp"
	"mlpeering/internal/paths"
	"mlpeering/internal/topology"
)

// Rel is an inferred relationship for an unordered AS pair (A < B).
type Rel int

// Relationship labels. RelAB means A is the customer (A→B is c2p).
const (
	RelUnknown Rel = iota
	RelP2P         // A and B peer
	RelC2P         // A is a customer of B
	RelP2C         // A is a provider of B
)

// String implements fmt.Stringer.
func (r Rel) String() string {
	switch r {
	case RelP2P:
		return "p2p"
	case RelC2P:
		return "c2p"
	case RelP2C:
		return "p2c"
	default:
		return "unknown"
	}
}

// Oracle answers relationship queries. It is implemented by the batch
// Inference and by the delta-maintained Incremental, so consumers like
// the RS-setter pinpointing of §4.2 work identically over a snapshot
// inference and an incrementally maintained one.
type Oracle interface {
	// Relationship returns the pair's relationship from a's perspective.
	Relationship(a, b bgp.ASN) Rel
	// LinkCount returns the number of inferred links (adjacent pairs).
	LinkCount() int
	// ForEachLink calls fn for every inferred link until fn returns
	// false, without materializing a map. Iteration order is undefined.
	ForEachLink(fn func(topology.LinkKey, Rel) bool)
}

// Inference holds the inferred relationship graph.
type Inference struct {
	rels map[topology.LinkKey]Rel

	// transitDegree counts the distinct neighbors an AS transits for.
	transitDegree map[bgp.ASN]int

	customers map[bgp.ASN][]bgp.ASN // provider -> direct customers
	clique    []bgp.ASN

	coneScratch map[bgp.ASN]bool // reused by ForEachConeMember
}

// Relationship returns the inferred relationship of the pair (a, b),
// oriented from a's perspective: RelC2P means a is b's customer.
func (inf *Inference) Relationship(a, b bgp.ASN) Rel {
	key := topology.MakeLinkKey(a, b)
	r, ok := inf.rels[key]
	if !ok {
		return RelUnknown
	}
	if a == key.A {
		return r
	}
	// Flip orientation.
	switch r {
	case RelC2P:
		return RelP2C
	case RelP2C:
		return RelC2P
	default:
		return r
	}
}

// Links returns all inferred links as a fresh map. Prefer ForEachLink
// on hot paths: it walks the same set without allocating.
func (inf *Inference) Links() map[topology.LinkKey]Rel {
	out := make(map[topology.LinkKey]Rel, len(inf.rels))
	for k, v := range inf.rels {
		out[k] = v
	}
	return out
}

// LinkCount returns the number of inferred links.
func (inf *Inference) LinkCount() int { return len(inf.rels) }

// ForEachLink calls fn for every inferred link until fn returns false.
// It allocates nothing; iteration order is undefined.
func (inf *Inference) ForEachLink(fn func(topology.LinkKey, Rel) bool) {
	for k, v := range inf.rels {
		if !fn(k, v) {
			return
		}
	}
}

// Clique returns the inferred transit-free clique.
func (inf *Inference) Clique() []bgp.ASN {
	return append([]bgp.ASN(nil), inf.clique...)
}

// CustomerDegree returns the number of inferred direct customers.
func (inf *Inference) CustomerDegree(asn bgp.ASN) int {
	return len(inf.customers[asn])
}

// IsStub reports whether the AS has no inferred customers (Fig. 7's
// stub definition).
func (inf *Inference) IsStub(asn bgp.ASN) bool { return len(inf.customers[asn]) == 0 }

// CustomerCone returns asn plus every AS reachable via inferred p2c
// edges — the customer cone of [32] — as a fresh map. Prefer
// ForEachConeMember on hot paths: it walks the same cone without
// allocating a map per call.
func (inf *Inference) CustomerCone(asn bgp.ASN) map[bgp.ASN]bool {
	cone := make(map[bgp.ASN]bool)
	inf.walkCone(asn, cone, func(bgp.ASN) bool { return true })
	return cone
}

// ForEachConeMember calls fn for every AS in asn's customer cone (asn
// included) until fn returns false. The visited set is an internal
// scratch map reused across calls, so after the first call the walk is
// allocation-free. Not safe for concurrent use.
func (inf *Inference) ForEachConeMember(asn bgp.ASN, fn func(bgp.ASN) bool) {
	if inf.coneScratch == nil {
		inf.coneScratch = make(map[bgp.ASN]bool)
	}
	clear(inf.coneScratch)
	inf.walkCone(asn, inf.coneScratch, fn)
}

// walkCone runs the cone DFS over the customers lists, marking visited
// ASes in seen and reporting each newly visited AS to fn. It stops
// early when fn returns false.
func (inf *Inference) walkCone(asn bgp.ASN, seen map[bgp.ASN]bool, fn func(bgp.ASN) bool) bool {
	if seen[asn] {
		return true
	}
	seen[asn] = true
	if !fn(asn) {
		return false
	}
	for _, c := range inf.customers[asn] {
		if !inf.walkCone(c, seen, fn) {
			return false
		}
	}
	return true
}

// TransitDegree returns the AS's transit degree.
func (inf *Inference) TransitDegree(asn bgp.ASN) int { return inf.transitDegree[asn] }

// InferPaths runs relationship inference over a plain path slice; it
// interns the paths into a fresh store and delegates to Infer. Repeated
// paths keep their multiplicity: each occurrence votes, exactly as when
// the slice is iterated directly.
func InferPaths(pp [][]bgp.ASN) *Inference {
	s := paths.NewStore()
	ids := make([]paths.ID, len(pp))
	for i, p := range pp {
		ids[i] = s.Intern(p)
	}
	return Infer(paths.NewView(s, ids))
}

// Infer runs relationship inference over an interned set of AS paths
// (each path listed collector-side first, origin last, already
// loop-free).
func Infer(v paths.View) *Inference {
	inf := &Inference{
		rels:          make(map[topology.LinkKey]Rel),
		transitDegree: make(map[bgp.ASN]int),
		customers:     make(map[bgp.ASN][]bgp.ASN),
	}

	// Pass 0: adjacency and transit degrees.
	adjacent := make(map[topology.LinkKey]bool)
	transitNbrs := make(map[bgp.ASN]map[bgp.ASN]bool)
	for pi := 0; pi < v.Len(); pi++ {
		path := dedupAdjacent(v.Path(pi))
		for i := 0; i+1 < len(path); i++ {
			adjacent[topology.MakeLinkKey(path[i], path[i+1])] = true
		}
		for i := 1; i+1 < len(path); i++ {
			m := transitNbrs[path[i]]
			if m == nil {
				m = make(map[bgp.ASN]bool)
				transitNbrs[path[i]] = m
			}
			m[path[i-1]] = true
			m[path[i+1]] = true
		}
	}
	for a, nbrs := range transitNbrs {
		inf.transitDegree[a] = len(nbrs)
	}

	// Pass 1: clique — greedily grow a mutually-adjacent set from the
	// highest transit degrees (simplified from [32]'s Bron-Kerbosch).
	inf.clique = greedyClique(inf.transitDegree, func(a, b bgp.ASN) bool {
		return adjacent[topology.MakeLinkKey(a, b)]
	})
	cliqueSet := make(map[bgp.ASN]bool, len(inf.clique))
	for _, a := range inf.clique {
		cliqueSet[a] = true
	}

	// Pass 2: vote c2p orientations around each path's peak.
	deg := func(a bgp.ASN) int { return inf.transitDegree[a] }
	votes := make(map[topology.LinkKey]*vote)
	addVote := func(customer, provider bgp.ASN) {
		key := topology.MakeLinkKey(customer, provider)
		v := votes[key]
		if v == nil {
			v = &vote{}
			votes[key] = v
		}
		v.add(key, customer, 1)
	}
	for pi := 0; pi < v.Len(); pi++ {
		path := dedupAdjacent(v.Path(pi))
		emitPathVotes(path, cliqueSet, deg, addVote)
	}

	// Pass 3: resolve votes (clique pairs are p2p by construction) and
	// refine single-direction c2p links between comparable high-degree
	// ASes into p2p — both folded into resolveRel, which is shared with
	// the incremental oracle.
	for key := range adjacent {
		inf.rels[key] = resolveRel(key, votes[key], cliqueSet, deg)
	}

	// Customer lists.
	for key, rel := range inf.rels {
		switch rel {
		case RelC2P:
			inf.customers[key.B] = append(inf.customers[key.B], key.A)
		case RelP2C:
			inf.customers[key.A] = append(inf.customers[key.A], key.B)
		}
	}
	for a := range inf.customers {
		sort.Slice(inf.customers[a], func(i, j int) bool { return inf.customers[a][i] < inf.customers[a][j] })
	}
	return inf
}

// vote counts c2p orientation evidence for an unordered pair: ab votes
// say A is the customer of B, ba the reverse.
type vote struct{ ab, ba int }

// add records n votes (n may be negative for refcounted maintenance)
// for customer being the customer side of key.
func (v *vote) add(key topology.LinkKey, customer bgp.ASN, n int) {
	if key.A == customer {
		v.ab += n
	} else {
		v.ba += n
	}
}

func (v *vote) empty() bool { return v.ab == 0 && v.ba == 0 }

// greedyClique grows the transit-free clique from the highest transit
// degrees: ASes sorted by (degree desc, ASN asc), each admitted when
// adjacent to every member already chosen, scanning until the clique
// reaches cliqueScan members. The sort is a total order, so the result
// does not depend on the map's iteration order.
func greedyClique(degree map[bgp.ASN]int, adjacent func(a, b bgp.ASN) bool) []bgp.ASN {
	type ranked struct {
		asn bgp.ASN
		deg int
	}
	cands := make([]ranked, 0, len(degree))
	//mlplint:ordered sorted by (degree desc, ASN asc) right below
	for a, d := range degree {
		cands = append(cands, ranked{a, d})
	}
	slices.SortFunc(cands, func(x, y ranked) int {
		if x.deg != y.deg {
			return cmp.Compare(y.deg, x.deg)
		}
		return cmp.Compare(x.asn, y.asn)
	})
	const cliqueScan = 24
	var clique []bgp.ASN
	for _, cand := range cands {
		if len(clique) >= cliqueScan {
			break
		}
		ok := true
		for _, member := range clique {
			if !adjacent(cand.asn, member) {
				ok = false
				break
			}
		}
		if ok {
			clique = append(clique, cand.asn)
		}
	}
	return clique
}

// pathPeak locates the path's "peak": the first hop of the highest
// rank, where clique members rank above the rest and then a higher
// transit degree ranks higher. It also counts the path's clique hops.
func pathPeak(path []bgp.ASN, cliqueSet map[bgp.ASN]bool, degree func(bgp.ASN) int) (peak, cliqueHops int) {
	peakClique, peakDeg := cliqueSet[path[0]], degree(path[0])
	if peakClique {
		cliqueHops = 1
	}
	for i := 1; i < len(path); i++ {
		c := cliqueSet[path[i]]
		if c {
			cliqueHops++
		}
		if c != peakClique {
			if c {
				peak, peakClique, peakDeg = i, true, degree(path[i])
			}
			continue
		}
		if d := degree(path[i]); d > peakDeg {
			peak, peakDeg = i, d
		}
	}
	return peak, cliqueHops
}

// emitPathVotes generates one path's c2p votes around its peak. The
// path must already be prepending-collapsed.
func emitPathVotes(path []bgp.ASN, cliqueSet map[bgp.ASN]bool, degree func(bgp.ASN) int, emit func(customer, provider bgp.ASN)) {
	if len(path) < 2 {
		return
	}
	peak, _ := pathPeak(path, cliqueSet, degree)
	emitVotesAround(path, peak, emit)
}

// emitVotesAround generates the c2p votes of a path peaking at hop
// peak: a path's votes are a pure function of (path, peak), which is
// what lets the incremental oracle cache one int per path instead of
// its vote list. Collector-side first means traffic flows origin ->
// collector: links between the peak and the collector flow down (the
// collector-side AS is the customer), links on the origin side are
// announced customer -> provider left-ward.
func emitVotesAround(path []bgp.ASN, peak int, emit func(customer, provider bgp.ASN)) {
	for i := 0; i < peak; i++ {
		// path[i] is nearer the collector: it heard the route from
		// path[i+1], so path[i] is a customer of path[i+1].
		emit(path[i], path[i+1])
	}
	for i := peak; i+1 < len(path); i++ {
		// Origin side: path[i+1] announced to path[i], its provider.
		emit(path[i+1], path[i])
	}
}

// resolveRel labels one adjacent pair from its votes, clique membership
// and transit degrees: clique pairs are p2p by construction, conflicting
// votes within a 2x ratio are the peak-adjacent peer link, and
// single-direction c2p links between comparable high-degree non-clique
// ASes are refined into p2p. v may be nil (adjacent but never voted).
func resolveRel(key topology.LinkKey, v *vote, cliqueSet map[bgp.ASN]bool, degree func(bgp.ASN) int) Rel {
	aClique, bClique := cliqueSet[key.A], cliqueSet[key.B]
	if aClique && bClique {
		return RelP2P
	}
	var rel Rel
	switch {
	case v == nil || v.empty():
		return RelUnknown
	case v.ab > 0 && v.ba > 0:
		// Conflicting votes: links adjacent to the peak are usually
		// p2p (the single peer link of a valley-free path).
		if ratio(v.ab, v.ba) < 2 {
			return RelP2P
		} else if v.ab > v.ba {
			rel = RelC2P
		} else {
			rel = RelP2C
		}
	case v.ab > 0:
		rel = RelC2P
	default:
		rel = RelP2C
	}
	da, db := degree(key.A), degree(key.B)
	if refinable(aClique, da) && refinable(bClique, db) && ratio(da, db) < 3 {
		return RelP2P
	}
	return rel
}

// refinable reports whether an endpoint takes part in resolveRel's
// degree-ratio refinement: outside the clique, with more than ten
// transit neighbors.
func refinable(clique bool, degree int) bool { return !clique && degree > 10 }

func ratio(a, b int) int {
	if a < b {
		a, b = b, a
	}
	if b == 0 {
		return 1 << 30
	}
	return a / b
}

func dedupAdjacent(path []bgp.ASN) []bgp.ASN {
	// Interned store paths are already prepending-collapsed; detect that
	// without allocating.
	clean := true
	for i := 1; i < len(path); i++ {
		if path[i] == path[i-1] {
			clean = false
			break
		}
	}
	if clean {
		return path
	}
	var out []bgp.ASN
	for _, a := range path {
		if len(out) == 0 || out[len(out)-1] != a {
			out = append(out, a)
		}
	}
	return out
}
