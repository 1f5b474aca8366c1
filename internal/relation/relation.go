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
	rels      map[topology.LinkKey]Rel
	customers map[bgp.ASN][]bgp.ASN // provider -> direct customers

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

// CustomerDegree returns the number of inferred direct customers.
func (inf *Inference) CustomerDegree(asn bgp.ASN) int {
	return len(inf.customers[asn])
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
// loop-free; the store collapsed prepending when it interned them).
// A path ID the view lists more than once votes once per occurrence.
func Infer(v paths.View) *Inference {
	p := runPasses(v)
	inf := &Inference{
		rels:      make(map[topology.LinkKey]Rel, len(p.adj)),
		customers: make(map[bgp.ASN][]bgp.ASN),
	}

	// Resolve votes (clique pairs are p2p by construction) and refine
	// single-direction c2p links between comparable high-degree ASes
	// into p2p — both folded into resolveRel, which is shared with the
	// incremental oracle.
	for key := range p.adj {
		inf.rels[key] = resolveRel(key, p.votes[key], p.cliqueSet, p.degreeOf)
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

// transitPair identifies one (interior AS, neighbor) adjacency used for
// transit-degree accounting.
type transitPair struct {
	mid, nbr bgp.ASN
}

// noPeak marks a path that contributes no votes: not live, or shorter
// than two hops.
const noPeak = -1

// passes is the batch algorithm's result over a path view, every count
// taken per occurrence: adj and transit count the paths carrying each
// link and each (mid, nbr) transit pair, degree counts each AS's
// distinct transit neighbors, votes holds the c2p votes cast around
// every path's peak, and peaks[i] is view position i's peak, its AS
// and whether it is the path's only clique hop (peak noPeak under two
// hops). Infer resolves its labels from it; an empty Incremental adopts
// its maps as its own state.
type passes struct {
	adj       map[topology.LinkKey]int
	transit   map[transitPair]int
	degree    map[bgp.ASN]int
	clique    []bgp.ASN
	cliqueSet map[bgp.ASN]bool
	votes     map[topology.LinkKey]*vote
	peaks     []votedPath
}

func (p *passes) degreeOf(a bgp.ASN) int { return p.degree[a] }

// runPasses runs the batch passes over v: (0) adjacency and transit
// pairs, then transit degrees; (1) the clique, greedily grown from the
// highest transit degrees (simplified from [32]'s Bron-Kerbosch); (2)
// each path's peak and its c2p votes around it.
func runPasses(v paths.View) *passes {
	p := &passes{
		adj:     make(map[topology.LinkKey]int),
		transit: make(map[transitPair]int),
		votes:   make(map[topology.LinkKey]*vote),
		peaks:   make([]votedPath, v.Len()),
	}
	for i := 0; i < v.Len(); i++ {
		path := v.Path(i)
		for j := 0; j+1 < len(path); j++ {
			p.adj[topology.MakeLinkKey(path[j], path[j+1])]++
		}
		for j := 1; j+1 < len(path); j++ {
			p.transit[transitPair{path[j], path[j-1]}]++
			p.transit[transitPair{path[j], path[j+1]}]++
		}
	}
	p.degree = make(map[bgp.ASN]int)
	for tp := range p.transit {
		p.degree[tp.mid]++
	}

	p.clique = greedyClique(p.degree, func(a, b bgp.ASN) bool {
		return p.adj[topology.MakeLinkKey(a, b)] > 0
	})
	p.cliqueSet = make(map[bgp.ASN]bool, len(p.clique))
	for _, a := range p.clique {
		p.cliqueSet[a] = true
	}

	for i := 0; i < v.Len(); i++ {
		path := v.Path(i)
		if len(path) < 2 {
			p.peaks[i].peak = noPeak
			continue
		}
		peak, cliqueHops := pathPeak(path, p.cliqueSet, p.degreeOf)
		p.peaks[i] = votedPath{peak: int32(peak), peakAS: path[peak], soleClique: cliqueHops == 1}
		emitVotesAround(path, peak, func(customer, provider bgp.ASN) {
			key := topology.MakeLinkKey(customer, provider)
			vt := p.votes[key]
			if vt == nil {
				vt = &vote{}
				p.votes[key] = vt
			}
			vt.add(key, customer, 1)
		})
	}
	return p
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
