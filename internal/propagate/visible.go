// Vantage-aware dirty sets. Engine.Apply's dirty set answers "whose
// routing tree may have changed"; a measurement that only observes a
// few vantage ASes (a collector's feeders) needs the narrower "whose
// tree may have changed at a node I can see".
//
// The rule is valley-free export (§2.3, §4.2). Every churn operation
// adds, removes or re-labels a peer-class edge root→recv (bilateral or
// via a route server), and such an edge carries a destination only
// while root holds a customer-or-better route, i.e. the destination is
// in cone(root). Customer-class hops depend on transit edges alone and
// never change, so in a dirty tree the hops that can differ are recv's
// (it gains, loses or re-labels a peer route) and, because a peer- or
// provider-learned route is exported to customers and siblings only,
// those of recv's customer/sibling descendants. A vantage's route is
// the via-chain from the vantage to the destination; a chain reaches a
// peer- or provider-class node only through provider-class hops, so it
// can contain a changed hop (or the re-labelled RS edge) only if the
// vantage is recv or below it. Hence a dirty destination in cone(root)
// is visible only when recv is a vantage or a provider/sibling ancestor
// of one.
//
// The same closure bounds what a sweep has to compute at all: phase 3 of
// a swept tree runs over it alone (Engine.ForEachTree).
package propagate

import "mlpeering/internal/bgp"

// conePair is one peer-class edge a delta touched: destinations in the
// customer cone of root may change their route at recv.
type conePair struct {
	root, recv int32
}

// changeSet is the change structure of the engine's most recent Apply,
// kept for Vantages.Visible. The zero value (no Apply yet) changes
// nothing.
type changeSet struct {
	pairs []conePair
	point []int32 // prefix-move endpoints: always visible
	// unknown is set when Apply failed mid-delta and rebuilt the engine:
	// the extent of the mutation is not known, so everything is visible.
	unknown bool
}

// Vantages is a set of observer ASes prepared for two uses: Visible
// queries, and sweeps (Engine.ForEachTree) that compute only what the
// vantages can see. Both rest on the vantages closed upward over
// provider and sibling edges: a vantage's route, and every alternative
// in its Adj-RIB-In, reaches a provider-class hop only through
// provider-class hops, i.e. only inside that closure. Churn deltas never
// touch transit edges, so one Vantages stays valid across every Apply
// on its engine.
type Vantages struct {
	e *Engine
	// above[i]: AS index i is a vantage or a provider/sibling ancestor
	// of one — exactly the nodes whose route changes can reach a vantage.
	above []bool
	// down is the engine's down adjacency restricted to above: a sweep's
	// phase 3 relaxes only these edges. No edge enters above from
	// outside it, because up and down are transposes and above is closed
	// over up, so every hop inside above comes out as in a full tree.
	down csr
}

// NewVantages prepares the observer set asns (unknown ASNs are ignored)
// with one closure over the up adjacency and one pass over the down
// adjacency. An empty set sweeps trees whose only exact routes are
// customer-, peer- and origin-class: all a route-server RIB reads.
func (e *Engine) NewVantages(asns []bgp.ASN) *Vantages {
	n := len(e.asns)
	v := &Vantages{e: e, above: make([]bool, n), down: csr{off: make([]int32, n+1)}}
	roots := make([]int32, 0, len(asns))
	for _, a := range asns {
		if i, ok := e.idx[a]; ok {
			roots = append(roots, i)
		}
	}
	e.up.closure(v.above, roots)
	for u := range n {
		if v.above[u] {
			for _, c := range e.down.row(int32(u)) {
				if v.above[c] {
					v.down.adj = append(v.down.adj, c)
				}
			}
		}
		v.down.off[u+1] = int32(len(v.down.adj))
	}
	return v
}

// Visible filters dirty, the destination list the engine's most recent
// Apply returned, down to the destinations whose route at some vantage
// (class, path or communities) or whose prefix list may differ from
// before that Apply; order is kept. Every other dirty destination is
// guaranteed to look the same from every vantage, although its tree may
// have changed elsewhere. Like Tree, Visible must not run concurrently
// with Apply.
func (v *Vantages) Visible(dirty []bgp.ASN) []bgp.ASN {
	e := v.e
	ch := &e.change
	if ch.unknown {
		return dirty
	}
	roots := make([]int32, 0, len(ch.pairs))
	for _, p := range ch.pairs {
		if v.above[p.recv] {
			roots = append(roots, p.root)
		}
	}
	mark := make([]bool, len(e.asns))
	e.down.closure(mark, roots) // union of the roots' customer cones
	for _, i := range ch.point {
		mark[i] = true
	}
	out := make([]bgp.ASN, 0, len(roots)+len(ch.point))
	for _, d := range dirty {
		if i, ok := e.idx[d]; ok && mark[i] {
			out = append(out, d)
		}
	}
	return out
}
