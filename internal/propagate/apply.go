// Epochal topology mutation: Delta describes one epoch's worth of
// route-churn events (bilateral session flaps, route-server membership
// and filter churn, prefix-origin moves) and Engine.Apply patches the
// engine in place — rebuilding only the peer adjacency and the mutated
// IXPs' route-server state, and reporting only the destinations whose
// trees a mutated edge or IXP can reach — instead of discarding
// everything with a fresh NewEngine per epoch.
//
// The dirty-set rule exploits the Gao-Rexford structure of the trees:
// a bilateral or route-server edge at node u carries routes toward a
// destination only while u holds a customer-or-better route, i.e. only
// while the destination lies in u's customer cone. None of the churn
// operations touch transit (provider/customer) edges, so cones are
// invariant under Apply and one BFS over the down CSR per mutated node
// yields a conservative, provably sufficient dirty destination set.
// Route-server ops tighten the seed set further with the precomputed
// allowed-pair bitsets: instead of every co-member's cone, only the
// exporters actually allowed to reach the mutated member (before or
// after the delta) are seeded — with restrictive filters most
// co-members never were, and their cones stay clean.
package propagate

import (
	"fmt"
	"slices"

	"mlpeering/internal/bgp"
	"mlpeering/internal/topology"
)

// PeerOp flaps one bilateral p2p session.
type PeerOp struct {
	A, B bgp.ASN
	Add  bool // true: session established; false: session torn down
	// IXPs optionally names the exchange fabrics the session runs
	// across; on Add they are restored into Topology.BilateralIXP so a
	// flapped IXP bilateral keeps its ground-truth attribution.
	IXPs []string
}

// MemberOp connects a member to, or disconnects it from, an IXP's route
// server. On Join Policy becomes the member's ground truth; on Leave it
// is ignored.
type MemberOp struct {
	IXP    string
	Member bgp.ASN
	Join   bool
	Policy topology.RSPolicy
}

// FilterOp replaces an existing RS member's policy record.
type FilterOp struct {
	IXP    string
	Member bgp.ASN
	Policy topology.RSPolicy
}

// PrefixOp re-homes an originated prefix. It never changes any routing
// tree (trees are per destination AS), but both origins' announcements
// change, so both are reported dirty for collector diffing.
type PrefixOp struct {
	Prefix   bgp.Prefix
	From, To bgp.ASN
}

// Delta is one epoch's batch of mutations. Apply lands the operations
// in order and then patches the engine once; if an operation fails, the
// topology may be left partially mutated, but the engine rebuilds all
// derived state so it always stays consistent with the topology.
type Delta struct {
	Epoch    int
	Peers    []PeerOp
	Members  []MemberOp
	Filters  []FilterOp
	Prefixes []PrefixOp
}

// Ops returns the total operation count.
func (d *Delta) Ops() int {
	return len(d.Peers) + len(d.Members) + len(d.Filters) + len(d.Prefixes)
}

// ApplyToTopology lands every operation of d on topo without involving
// an engine: the full-rebuild path (mutate, then NewEngine) used as the
// baseline the incremental Engine.Apply is benchmarked against.
func (d *Delta) ApplyToTopology(topo *topology.Topology) error {
	for _, op := range d.Peers {
		var err error
		if op.Add {
			err = topo.AddPeerLink(op.A, op.B)
			if err == nil && len(op.IXPs) > 0 {
				if topo.BilateralIXP == nil {
					topo.BilateralIXP = make(map[bgp.LinkKey][]string)
				}
				topo.BilateralIXP[bgp.MakeLinkKey(op.A, op.B)] = append([]string(nil), op.IXPs...)
			}
		} else {
			err = topo.RemovePeerLink(op.A, op.B)
		}
		if err != nil {
			return err
		}
	}
	for _, op := range d.Members {
		var err error
		if op.Join {
			err = topo.JoinRouteServer(op.IXP, op.Member, op.Policy)
		} else {
			err = topo.LeaveRouteServer(op.IXP, op.Member)
		}
		if err != nil {
			return err
		}
	}
	for _, op := range d.Filters {
		if err := topo.SetRSFilters(op.IXP, op.Member, op.Policy); err != nil {
			return err
		}
	}
	for _, op := range d.Prefixes {
		if err := topo.MovePrefix(op.Prefix, op.From, op.To); err != nil {
			return err
		}
	}
	return nil
}

// Apply lands d on the engine's topology and patches the engine
// incrementally: the peer CSR is rebuilt only when sessions flapped and
// route-server state only for the IXPs the delta touched. The returned
// slice lists every destination whose announced routes may have changed
// (ascending ASN): the exact set a collector diff (UpdateStream) needs
// to re-examine. Trees for destinations outside it are byte-identical
// before and after.
//
// Apply requires exclusive access: no Tree/ForEachTree call may run
// concurrently, and Trees obtained before Apply for dirty destinations
// are stale afterwards.
func (e *Engine) Apply(d *Delta) ([]bgp.ASN, error) {
	n := len(e.asns)
	seeds := make([]int32, 0, 8)       // cone roots
	point := make([]int32, 0, 4)       // dirty without cone expansion (prefix moves)
	touchedIXP := make(map[int16]bool) // ixps to rebuild
	// The seeds again as (cone root, receiver) pairs, retained for
	// Vantages.Visible: a seed says whose cone holds the dirty trees, a
	// pair also says at which node the change enters them.
	var pairs []conePair

	seedASN := func(a bgp.ASN) error {
		i, ok := e.idx[a]
		if !ok {
			return fmt.Errorf("propagate: delta references unknown AS %s", a)
		}
		seeds = append(seeds, i)
		return nil
	}

	// Resolve every reference up front (errors must leave the engine
	// untouched) and remember the RS ops: their import-side seeding
	// needs both the pre- and post-mutation allowed-pair bitsets.
	type rsRef struct {
		xi int16
		mi int32
	}
	var memberOps, filterOps []rsRef
	for _, op := range d.Peers {
		if err := seedASN(op.A); err != nil {
			return nil, err
		}
		if err := seedASN(op.B); err != nil {
			return nil, err
		}
		ai, bi := e.idx[op.A], e.idx[op.B]
		pairs = append(pairs, conePair{root: ai, recv: bi}, conePair{root: bi, recv: ai})
	}
	for _, op := range d.Members {
		xi, ok := e.ixpsByName[op.IXP]
		if !ok {
			return nil, fmt.Errorf("propagate: delta references unknown IXP %s", op.IXP)
		}
		touchedIXP[xi] = true
		if err := seedASN(op.Member); err != nil {
			return nil, err
		}
		memberOps = append(memberOps, rsRef{xi: xi, mi: e.idx[op.Member]})
	}
	for _, op := range d.Filters {
		xi, ok := e.ixpsByName[op.IXP]
		if !ok {
			return nil, fmt.Errorf("propagate: delta references unknown IXP %s", op.IXP)
		}
		touchedIXP[xi] = true
		if err := seedASN(op.Member); err != nil {
			return nil, err
		}
		filterOps = append(filterOps, rsRef{xi: xi, mi: e.idx[op.Member]})
	}
	for _, op := range d.Prefixes {
		for _, a := range []bgp.ASN{op.From, op.To} {
			i, ok := e.idx[a]
			if !ok {
				return nil, fmt.Errorf("propagate: delta references unknown AS %s", a)
			}
			point = append(point, i)
		}
	}

	// Snapshot the mutated IXPs' pre-delta state: the bitset diff below
	// compares allowed pairs before and after.
	oldIXP := make(map[int16]*ixpState, len(touchedIXP))
	for xi := range touchedIXP {
		oldIXP[xi] = e.ixps[xi]
	}

	if err := d.ApplyToTopology(e.topo); err != nil {
		// The delta may have landed partially; rebuild every derived
		// structure so the engine stays consistent with whatever the
		// topology now holds.
		e.rebuildAll()
		e.change = changeSet{unknown: true}
		return nil, err
	}

	// Patch engine state: peer adjacency if sessions flapped, RS state
	// per touched IXP. Transit adjacency (up/down) is invariant under
	// churn deltas.
	if len(d.Peers) > 0 {
		e.peers = e.buildCSR(func(as *topology.AS) ([]bgp.ASN, []bgp.ASN) { return as.Peers, nil })
	}
	for xi := range touchedIXP {
		e.ixps[xi] = e.buildIXPState(e.ixps[xi].info)
	}

	// Import-side seeds, tightened by the allowed-pair bitsets: member
	// m's received RS routes can change only through exporters e whose
	// allowed(e→m) bit is set — in the old state for pairs that existed
	// (leaves, import narrowing), the new state for pairs created
	// (joins, import widening). m's own cone, seeded above, covers the
	// export side (m→v pairs only carry destinations m can export). A
	// pair between two unmutated members is untouched by the delta, so
	// nothing else can change and the old every-member-cone union is
	// provably over-conservative.
	seedAllowedInto := func(st *ixpState, mi int32) {
		s := st.slotOf[mi]
		if s < 0 {
			return
		}
		for es, ei := range st.members {
			if ei != mi && st.allowedBit(int32(es), s) {
				seeds = append(seeds, ei)
				pairs = append(pairs, conePair{root: ei, recv: mi})
			}
		}
	}
	// Export side, for Visible only (mi's cone is already seeded): every
	// member mi may export to. The communities mi attaches ride these
	// edges, so an edge that stays allowed still carries a change.
	pairAllowedFrom := func(st *ixpState, mi int32) {
		s := st.slotOf[mi]
		if s < 0 {
			return
		}
		for vs, vi := range st.members {
			if st.allowedBit(s, int32(vs)) {
				pairs = append(pairs, conePair{root: mi, recv: vi})
			}
		}
	}
	for _, r := range memberOps {
		seedAllowedInto(oldIXP[r.xi], r.mi) // leave: pairs that existed
		seedAllowedInto(e.ixps[r.xi], r.mi) // join: pairs created
		pairAllowedFrom(oldIXP[r.xi], r.mi)
		pairAllowedFrom(e.ixps[r.xi], r.mi)
	}
	for _, r := range filterOps {
		// A filter edit keeps membership (and member slots) intact:
		// seed only the exporters whose bit toward the member flipped.
		oldSt, newSt := oldIXP[r.xi], e.ixps[r.xi]
		so, sn := oldSt.slotOf[r.mi], newSt.slotOf[r.mi]
		for es, ei := range newSt.members {
			if ei == r.mi {
				continue
			}
			var ob, nb bool
			if so >= 0 {
				if eo := oldSt.slotOf[ei]; eo >= 0 {
					ob = oldSt.allowedBit(eo, so)
				}
			}
			if sn >= 0 {
				nb = newSt.allowedBit(int32(es), sn)
			}
			if ob != nb {
				seeds = append(seeds, ei)
				pairs = append(pairs, conePair{root: ei, recv: r.mi})
			}
		}
		pairAllowedFrom(oldSt, r.mi)
		pairAllowedFrom(newSt, r.mi)
	}

	// Dirty set: the union of the seeds' customer cones (down-CSR BFS)
	// plus the point-dirty destinations.
	dirty := make([]bool, n)
	e.down.closure(dirty, seeds)
	for _, i := range point {
		dirty[i] = true
	}
	e.change = changeSet{pairs: pairs, point: point}

	out := make([]bgp.ASN, 0, 64)
	for i := 0; i < n; i++ {
		if dirty[i] {
			out = append(out, e.asns[i])
		}
	}
	slices.Sort(out)
	return out, nil
}

// rebuildAll re-derives every topology-dependent structure: the
// recovery path when a delta failed mid-application and the precise
// extent of the mutation is unknown.
func (e *Engine) rebuildAll() {
	e.peers = e.buildCSR(func(as *topology.AS) ([]bgp.ASN, []bgp.ASN) { return as.Peers, nil })
	e.up = e.buildCSR(func(as *topology.AS) ([]bgp.ASN, []bgp.ASN) { return as.Providers, as.Siblings })
	e.down = e.buildCSR(func(as *topology.AS) ([]bgp.ASN, []bgp.ASN) { return as.Customers, as.Siblings })
	for xi := range e.ixps {
		e.ixps[xi] = e.buildIXPState(e.ixps[xi].info)
	}
}

// AppendState appends a canonical byte encoding of the tree — the
// destination, every node's hop state, and the per-IXP exporter lists —
// to dst. Two trees over the same topology are identical iff their
// encodings are equal; the incremental-apply equivalence tests pin
// patched engines to freshly built ones with it.
func (t *Tree) AppendState(dst []byte) []byte {
	dst = append(dst, byte(t.dest>>24), byte(t.dest>>16), byte(t.dest>>8), byte(t.dest))
	for _, h := range t.hops {
		dst = append(dst,
			byte(h.via>>24), byte(h.via>>16), byte(h.via>>8), byte(h.via),
			byte(h.viaIXP>>8), byte(h.viaIXP),
			byte(h.class), byte(h.dist>>8), byte(h.dist))
		if h.bilateral {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	for xi := range t.e.ixps {
		dst = append(dst, 0xFE)
		for _, m := range t.exportersAt(int16(xi)) {
			dst = append(dst, byte(m>>24), byte(m>>16), byte(m>>8), byte(m))
		}
	}
	return dst
}
