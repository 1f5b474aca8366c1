package topology

import (
	"math/rand"
	"sort"

	"mlpeering/internal/bgp"
	"mlpeering/internal/peeringdb"
)

// This file defines the world scenarios. Each non-baseline one splices
// extra stages into the baseline pipeline; per-IXP stages draw from
// independent (stage, IXP) streams and run on the worker pool like the
// baseline's, while world-global stages keep a single StageRNG stream —
// so a scenario world is always the baseline world plus the scenario's
// additions, never a perturbation of baseline draws.

// scenarios is every world scenario, sorted by name by hand:
// ScenarioNames and -list-scenarios print it in this order.
var scenarios = []Scenario{
	{
		Name:        "baseline",
		Description: "the paper's world: 13 IXPs (Table 2), tiered transit hierarchy, per-member RS filters",
		Stages:      baselineStages(),
	},
	{
		Name: "multi-ixp-hybrid",
		Description: "baseline plus boosted multi-IXP presence and parallel " +
			"bilateral sessions next to route-server peerings",
		Stages: splice(
			splice(baselineStages(), "ixps", 1,
				stage("hybrid-presence", (*Builder).addHybridPresence)),
			"bilateral-ixp", 1,
			stage("hybrid-bilateral", (*Builder).addHybridBilateral)),
	},
	{
		Name: "pari-noise",
		Description: "baseline with a probabilistic relationship mix: some bilateral " +
			"p2p links demoted to transit, plus peering noise (PARI — Feng et al.)",
		Stages: splice(baselineStages(), "private-peering", 1,
			stage("pari-noise", (*Builder).addPARINoise)),
	},
	{
		Name: "remote-peering",
		Description: "baseline plus remote IXP members connected through resellers " +
			"(O Peer, Where Art Thou? — Nomikos et al.)",
		Stages: splice(baselineStages(), "ixps", 1,
			stage("remote-members", (*Builder).addRemoteMembers)),
	},
	{
		Name: "scaled-world",
		Description: "the 10-100x world: Config.Scale grows the number of IXPs " +
			"toward hundreds of exchanges with realistic member counts, plus " +
			"boosted multi-IXP presence (remote-peering-era workloads)",
		Stages: splice(
			splice(baselineStages(), "allocate-ases", 0,
				stage("scaled-ixps", (*Builder).expandIXPProfiles)),
			"ixps", 1,
			stage("hybrid-presence", (*Builder).addHybridPresence)),
	},
}

// --- remote-peering ---------------------------------------------------

// remoteFrac is the fraction of each IXP's membership added as remote
// members; Nomikos et al. found ~20% of members at large IXPs peer
// remotely.
const remoteFrac = 0.20

// addRemoteMembers grows every IXP with out-of-region members connected
// through a reseller: an existing local transit member that sells a
// virtual port plus transit toward the exchange. Remote members join
// the route server like any other member, which is exactly why the
// paper's method cannot tell them apart — the ground truth lands in
// Topology.RemoteMembers. Selection is per-IXP compute; membership,
// transit link and registration mutations land in the ordered commits.
func (b *Builder) addRemoteMembers() {
	b.RemoteMembers = make(map[string][]bgp.ASN, len(b.IXPs))
	b.fanOutIXPs("remote-members", func(rng *rand.Rand, xi int) func() {
		info := b.IXPs[xi]
		s := b.scratch()
		memberSet := s.member
		memberVisited := make([]int32, 0, len(info.Members))
		for _, m := range info.Members {
			if id, ok := b.byASN[m]; ok {
				memberSet[id] = true
				memberVisited = append(memberVisited, id)
			}
		}

		// Resellers: local transit members with customers of their own.
		var resellers []bgp.ASN
		for _, m := range info.Members {
			as := b.AS(m)
			if as.Tier == Tier2 && !as.Content && as.Region == info.Region {
				resellers = append(resellers, m)
			}
		}
		sort.Slice(resellers, func(i, j int) bool { return resellers[i] < resellers[j] })
		if len(resellers) == 0 {
			clearMarks(memberSet, memberVisited)
			b.release(s)
			return nil
		}
		if len(resellers) > 4 {
			resellers = resellers[:4]
		}

		type remoteAdd struct {
			asn, reseller bgp.ASN
			joinRS, reg   bool
		}
		var adds []remoteAdd
		want := int(float64(len(info.Members))*remoteFrac + 0.5)
		for _, id := range b.orderIDs {
			if len(adds) >= want {
				break
			}
			as := &b.recs[id]
			if memberSet[id] || as.Content || as.Tier == Tier1 {
				continue
			}
			if as.Region == info.Region {
				continue
			}
			if rng.Float64() > 0.35 {
				continue
			}
			reseller := resellers[rng.Intn(len(resellers))]
			if as.ASN == reseller {
				continue
			}
			// Registration is drawn here, unconditionally, and applied
			// in the commit only if the AS is still unregistered: the
			// draw must not depend on other IXPs' commits.
			adds = append(adds, remoteAdd{
				asn:      as.ASN,
				reseller: reseller,
				joinRS:   rng.Float64() < 0.85,
				reg:      rng.Float64() < registeredFrac,
			})
		}
		clearMarks(memberSet, memberVisited)
		b.release(s)
		if len(adds) == 0 {
			return nil
		}
		return func() {
			for _, a := range adds {
				// The virtual port rides on transit from the reseller.
				b.Link(a.asn, a.reseller)
				info.Members = append(info.Members, a.asn)
				if a.joinRS {
					info.RSMembers = append(info.RSMembers, a.asn)
				}
				as := b.AS(a.asn)
				if !as.Registered {
					as.Registered = a.reg
				}
				b.RemoteMembers[info.Name] = append(b.RemoteMembers[info.Name], a.asn)
			}
		}
	})
}

// --- multi-ixp-hybrid -------------------------------------------------

// addHybridPresence joins existing route-server members to additional
// IXPs they are eligible for, producing the multi-IXP presence matrix
// (Fig. 10) of a world where large peers meet at several exchanges.
// The RS-member pool is snapshotted before the fan-out, so each IXP's
// additions are independent of the others'.
func (b *Builder) addHybridPresence() {
	rsAnywhere := make([]bool, len(b.recs))
	for _, info := range b.IXPs {
		for _, m := range info.RSMembers {
			if id, ok := b.byASN[m]; ok {
				rsAnywhere[id] = true
			}
		}
	}
	var pool []int32
	for _, id := range b.orderIDs { // ascending ASN, deterministic
		if rsAnywhere[id] {
			pool = append(pool, id)
		}
	}
	b.fanOutIXPs("hybrid-presence", func(rng *rand.Rand, xi int) func() {
		info := b.IXPs[xi]
		s := b.scratch()
		memberSet := s.member
		memberVisited := make([]int32, 0, len(info.Members))
		for _, m := range info.Members {
			if id, ok := b.byASN[m]; ok {
				memberSet[id] = true
				memberVisited = append(memberVisited, id)
			}
		}
		type joiner struct {
			asn    bgp.ASN
			joinRS bool
		}
		var adds []joiner
		maxAdd := len(info.Members) / 4 // keep growth bounded at every scale
		for _, id := range pool {
			if len(adds) >= maxAdd {
				break
			}
			if memberSet[id] {
				continue
			}
			as := &b.recs[id]
			// Same eligibility shape as the membership stage: locals,
			// global players, Europe-scope networks at European IXPs.
			eligible := as.Region == info.Region ||
				as.Scope == peeringdb.ScopeGlobal ||
				(as.Scope == peeringdb.ScopeEurope && info.Region.IsEurope())
			if !eligible || rng.Float64() > 0.30 {
				continue
			}
			adds = append(adds, joiner{asn: as.ASN, joinRS: rng.Float64() < 0.90})
		}
		clearMarks(memberSet, memberVisited)
		b.release(s)
		if len(adds) == 0 {
			return nil
		}
		return func() {
			for _, a := range adds {
				info.Members = append(info.Members, a.asn)
				if a.joinRS {
					info.RSMembers = append(info.RSMembers, a.asn)
				}
			}
		}
	})
}

// addHybridBilateral adds parallel bilateral sessions between
// route-server member pairs — the hybrid interconnection mix that hides
// RS paths from best-path vantage points — and makes a slice of those
// members prefer the bilateral sessions.
func (b *Builder) addHybridBilateral() {
	presence := make([]int32, len(b.recs))
	for _, info := range b.IXPs {
		for _, m := range info.RSMembers {
			if id, ok := b.byASN[m]; ok {
				presence[id]++
			}
		}
	}
	b.fanOutIXPs("hybrid-bilateral", func(rng *rand.Rand, xi int) func() {
		info := b.IXPs[xi]
		members := info.SortedRSMembers()
		var pairs [][2]bgp.ASN
		var prefBil []bgp.ASN
		for i, x := range members {
			xid, ok := b.byASN[x]
			if !ok || presence[xid] < 2 {
				continue
			}
			for _, y := range members[i+1:] {
				if rng.Float64() > 0.08 {
					continue
				}
				// Same transit-shadowing guard as the baseline
				// bilateral stage.
				if xs := b.AS(x); xs.HasProvider(y) || xs.HasCustomer(y) {
					continue
				}
				pairs = append(pairs, [2]bgp.ASN{x, y})
			}
			if rng.Float64() < 0.30 {
				prefBil = append(prefBil, x)
			}
		}
		if len(pairs) == 0 && len(prefBil) == 0 {
			return nil
		}
		return func() {
			for _, p := range pairs {
				b.Peer(p[0], p[1])
				key := bgp.MakeLinkKey(p[0], p[1])
				b.BilateralIXP[key] = append(b.BilateralIXP[key], info.Name)
			}
			for _, x := range prefBil {
				b.AS(x).PrefersBilateral = true
			}
		}
	})
}

// --- pari-noise -------------------------------------------------------

// addPARINoise perturbs the relationship mix probabilistically, after
// PARI's observation that inferred relationship datasets carry a blend
// of link types: a slice of bilateral p2p links is demoted to transit
// (the lower-customer-degree side becomes the customer), and a little
// extra edge-network peering appears. The perturbation is a world-global
// graph edit, not per-IXP work, so it stays on a single stage stream.
func (b *Builder) addPARINoise() {
	rng := b.StageRNG("pari-noise")

	// Demote ~15% of tier-2 p2p links to c2p.
	for _, asn := range b.Order {
		as := b.AS(asn)
		if as.Tier != Tier2 || as.Content {
			continue
		}
		// Copy: the peer list is mutated inside the loop.
		peers := append([]bgp.ASN(nil), as.Peers...)
		for _, p := range peers {
			if p < asn {
				continue // visit each link once, from its lower end
			}
			pas := b.AS(p)
			if pas.Tier != Tier2 || pas.Content {
				continue
			}
			if rng.Float64() > 0.15 {
				continue
			}
			cust, prov := asn, p
			if len(pas.Customers) < len(as.Customers) {
				cust, prov = p, asn
			}
			b.AS(asn).Peers = removeASN(b.AS(asn).Peers, p)
			b.AS(p).Peers = removeASN(b.AS(p).Peers, asn)
			b.Link(cust, prov)
		}
	}

	// Peering noise: sparse extra stub-to-transit p2p within a region.
	// The candidate scan is deterministic given the starting offset, so
	// a selected stub reliably gains a link when any same-region transit
	// exists.
	for _, sid := range b.stubIDs {
		if rng.Float64() > 0.05 {
			continue
		}
		as := &b.recs[sid]
		start := rng.Intn(len(b.tier2IDs))
		for k := range b.tier2IDs {
			t := &b.recs[b.tier2IDs[(start+k)%len(b.tier2IDs)]]
			if t == as || t.Region != as.Region || as.HasPeer(t.ASN) {
				continue
			}
			b.Peer(as.ASN, t.ASN)
			break
		}
	}
}
