package propagate

import (
	"fmt"
	"slices"

	"mlpeering/internal/bgp"
)

// Tree is the routing tree toward one destination AS.
//
// Trees returned by Engine.Tree are complete, owned by the caller and
// safe for concurrent reads. Trees passed to Engine.ForEachTree are
// recycled after the callback returns and carry only what the sweep's
// vantages can see; see that method's contract. Either way a tree is
// only ever (re)filled inside Engine.compute, the annotated builder.
//
//mlplint:frozen
type Tree struct {
	e    *Engine
	dest bgp.ASN
	hops []hop
	// Exporters per IXP, flattened: expFlat[expOff[xi]:expOff[xi+1]]
	// lists the RS members (by AS index, ascending) exporting a
	// customer/origin route toward dest at IXP xi.
	expFlat []int32
	expOff  []int32
	// above is the sweep's vantage closure (Vantages.above), or nil for
	// a full tree: outside it, a hop without a customer-, peer- or
	// origin-class route was never computed.
	above []bool
}

// hopAt returns AS index i's hop. A swept tree did not compute the
// provider-class hops outside its vantage closure, so asking for one
// there is a contract violation rather than "no route": it panics.
func (t *Tree) hopAt(i int32) hop {
	h := t.hops[i]
	if h.class == ClassNone && t.above != nil && !t.above[i] {
		t.notComputed(i)
	}
	return h
}

// notComputed panics for AS index i, outside the tree's sweep closure.
func (t *Tree) notComputed(i int32) {
	panic(fmt.Sprintf("propagate: tree toward %s swept without AS %s among its vantages: its route was not computed (Engine.ForEachTree computes what its vantages can see)", t.dest, t.e.asns[i]))
}

// Dest returns the destination AS.
func (t *Tree) Dest() bgp.ASN { return t.dest }

// exportersAt returns the exporting member indices at IXP xi.
func (t *Tree) exportersAt(xi int16) []int32 {
	return t.expFlat[t.expOff[xi]:t.expOff[xi+1]]
}

// Exporters returns the RS members exporting a route toward the
// destination at the named IXP, ascending by ASN. This is the "which
// members advertise this destination's prefixes to the RS" relation
// behind Fig. 5 and the RS looking glass.
func (t *Tree) Exporters(ixpName string) []bgp.ASN {
	xi, ok := t.e.ixpsByName[ixpName]
	if !ok {
		return nil
	}
	// Exporting also requires a policy record: a member without one
	// contributes nothing to the RS RIB. The flat exporter list is built
	// in ascending member order, so no sort is needed here.
	st := t.e.ixps[xi]
	var out []bgp.ASN
	for _, m := range t.exportersAt(xi) {
		if st.hasPolicy[st.slotOf[m]] {
			out = append(out, t.e.asns[m])
		}
	}
	return out
}

// VantageRoute is a route as seen at one vantage AS: the reconstructed
// AS path (vantage first, destination last), the communities that
// survived to the vantage, and bookkeeping about the route-server
// crossing if any.
type VantageRoute struct {
	Path        []bgp.ASN
	Communities bgp.Communities
	Class       Class
	Bilateral   bool   // first hop is a bilateral peer edge
	ViaIXP      string // IXP name when the path crosses a route server
	RSSetter    bgp.ASN
	Best        bool
}

// RouteFromArena returns the best route at the vantage AS, or nil,
// slab-allocating the route and its path from arena. The route is valid
// only until the arena's next Reset, and its Communities are shared
// with the engine rather than cloned: callers must treat the whole
// route as read-only. On a swept tree it panics for a vantage outside
// the sweep's closure that has no customer-, peer- or origin-class
// route: the sweep did not compute that hop (see Engine.ForEachTree).
func (t *Tree) RouteFromArena(vantage bgp.ASN, arena *RouteArena) *VantageRoute {
	vi, ok := t.e.idx[vantage]
	if !ok || t.hopAt(vi).class == ClassNone {
		return nil
	}
	return t.reconstruct(vi, arena)
}

// reconstruct follows via pointers from vi to the destination.
func (t *Tree) reconstruct(vi int32, arena *RouteArena) *VantageRoute {
	e := t.e
	h0 := t.hops[vi]
	r := arena.newRoute()
	r.Class = h0.class
	r.Bilateral = h0.bilateral
	r.Best = true
	// dist counts AS hops to the destination; +2 leaves room for a
	// non-transparent RS ASN insertion.
	r.Path = arena.pathSlice(int(h0.dist) + 2)
	// Walk the chain. dist strictly decreases along via pointers, so
	// this terminates. Community survival is tracked inline: communities
	// attached by the RS exporter survive to the vantage iff no AS
	// between the vantage (exclusive) and the importer (inclusive)
	// strips them on export.
	var rsExporter int32 = noVia
	var rsIXP int16 = noIXP
	rsSurvives := false
	stripsSeen := false
	cur := vi
	for {
		r.Path = append(r.Path, e.asns[cur])
		if len(r.Path) > 1 && e.strips[cur] {
			stripsSeen = true
		}
		h := t.hops[cur]
		if h.via == noVia {
			break
		}
		if h.viaIXP != noIXP {
			rsExporter = h.via
			rsIXP = h.viaIXP
			rsSurvives = !stripsSeen
			st := e.ixps[h.viaIXP]
			if !st.info.Transparent {
				r.Path = append(r.Path, st.info.Scheme.RSASN)
			}
		}
		cur = h.via
	}
	if rsIXP != noIXP {
		st := e.ixps[rsIXP]
		r.ViaIXP = st.info.Name
		r.RSSetter = e.asns[rsExporter]
		if !st.info.StripsCommunities && rsSurvives {
			r.Communities = st.pols[st.slotOf[rsExporter]].Comms
		}
	}
	return r
}

// AvailableRoutesFromArena enumerates every route the vantage AS has in
// its Adj-RIB-In toward the destination, best first: the view an
// all-paths looking glass prints. Alternatives whose path would
// traverse the vantage itself are suppressed (BGP loop prevention). The
// routes and their path storage are slab-allocated from arena and the
// result is appended to buf (which may be nil); like RouteFromArena's,
// the routes are valid only until the arena's next Reset and are
// read-only. On a swept tree it panics for any vantage outside the
// sweep's closure: its provider routes, and so its alternatives, were
// not computed.
func (t *Tree) AvailableRoutesFromArena(vantage bgp.ASN, arena *RouteArena, buf []*VantageRoute) []*VantageRoute {
	e := t.e
	vi, ok := e.idx[vantage]
	if !ok {
		return nil
	}
	if t.above != nil && !t.above[vi] {
		t.notComputed(vi)
	}
	out := buf[:0]

	add := func(nb int32, class Class, bilateral bool, viaIXPIdx int16) {
		sub := t.hops[nb]
		if sub.class == ClassNone {
			return
		}
		nbRoute := t.reconstruct(nb, arena)
		for _, a := range nbRoute.Path {
			if a == vantage {
				return // loop
			}
		}
		r := arena.newRoute()
		r.Class = class
		r.Bilateral = bilateral
		path := arena.pathSlice(len(nbRoute.Path) + 2)
		path = append(path, vantage)
		if viaIXPIdx != noIXP {
			st := e.ixps[viaIXPIdx]
			r.ViaIXP = st.info.Name
			r.RSSetter = e.asns[nb]
			if !st.info.Transparent {
				path = append(path, st.info.Scheme.RSASN)
			}
			if !st.info.StripsCommunities {
				r.Communities = st.pols[st.slotOf[nb]].Comms
			}
		} else {
			// Communities on the neighbor's route survive to the
			// vantage iff the neighbor itself does not strip.
			if nbRoute.Communities != nil && !e.strips[nb] {
				r.Communities = nbRoute.Communities
				r.ViaIXP = nbRoute.ViaIXP
				r.RSSetter = nbRoute.RSSetter
			}
		}
		r.Path = append(path, nbRoute.Path...)
		out = append(out, r)
	}

	if t.hops[vi].class == ClassOrigin {
		r := arena.newRoute()
		r.Class = ClassOrigin
		r.Best = true
		r.Path = append(arena.pathSlice(1), vantage)
		return append(out, r)
	}

	as := e.topo.ASes[vantage]
	// Customer routes: customers export their customer/origin routes.
	for _, c := range as.Customers {
		ci, ok := e.idx[c]
		if !ok {
			continue
		}
		if t.hops[ci].class >= ClassCustomer {
			add(ci, ClassCustomer, false, noIXP)
		}
	}
	// Sibling routes: siblings export everything; classify like customers.
	for _, s := range as.Siblings {
		si, ok := e.idx[s]
		if !ok {
			continue
		}
		if t.hops[si].class != ClassNone {
			add(si, ClassCustomer, false, noIXP)
		}
	}
	// Bilateral peers export customer/origin routes.
	for _, p := range as.Peers {
		pi, ok := e.idx[p]
		if !ok {
			continue
		}
		if t.hops[pi].class >= ClassCustomer {
			add(pi, ClassPeer, true, noIXP)
		}
	}
	// Route server peers: the precomputed allowed-pair bitset already
	// folds in policy-record existence and both Allows checks.
	for xi, st := range e.ixps {
		vs := st.slotOf[vi]
		if vs < 0 || !st.hasPolicy[vs] {
			continue
		}
		for _, ei := range t.exportersAt(int16(xi)) {
			if ei == vi {
				continue
			}
			if !st.allowedBit(st.slotOf[ei], vs) {
				continue
			}
			add(ei, ClassPeer, false, int16(xi))
		}
	}
	// Providers export their full table.
	for _, p := range as.Providers {
		pi, ok := e.idx[p]
		if !ok {
			continue
		}
		if t.hops[pi].class != ClassNone {
			add(pi, ClassProvider, false, noIXP)
		}
	}

	// Generic sort: sort.SliceStable's reflection path allocates, which
	// would void the arena's zero-alloc contract.
	slices.SortStableFunc(out, func(a, b *VantageRoute) int {
		switch {
		case t.routeLess(vi, a, b):
			return -1
		case t.routeLess(vi, b, a):
			return 1
		default:
			return 0
		}
	})
	if len(out) > 0 {
		out[0].Best = true
	}
	return out
}

// routeLess orders candidate routes at a vantage by the same preference
// the engine applies: class, the bilateral quirk, path length, then
// neighbor ASN.
func (t *Tree) routeLess(vi int32, a, b *VantageRoute) bool {
	if a.Class != b.Class {
		return a.Class > b.Class
	}
	if a.Class == ClassPeer && t.e.prefBil[vi] && a.Bilateral != b.Bilateral {
		return a.Bilateral
	}
	if len(a.Path) != len(b.Path) {
		return len(a.Path) < len(b.Path)
	}
	if len(a.Path) > 1 && len(b.Path) > 1 {
		return a.Path[1] < b.Path[1]
	}
	return false
}
