package topology

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
	"mlpeering/internal/peeringdb"
)

// Generate builds a deterministic synthetic world from cfg, running the
// scenario named by cfg.Scenario (the paper's baseline world when
// empty).
func Generate(cfg Config) (*Topology, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	sc, _ := lookupScenario(cfg.Scenario)
	return sc.generate(cfg)
}

// Check refuses, without building anything, an unknown scenario name
// or a scale that is not a positive finite number. A world it passes
// may still fail to build (baseline Scale >= 4 exhausts the alias
// table).
func (cfg Config) Check() error {
	if _, ok := lookupScenario(cfg.Scenario); !ok {
		return fmt.Errorf("topology: unknown scenario %q (have %v)", cfg.Scenario, ScenarioNames())
	}
	if cfg.Scale <= 0 || math.IsNaN(cfg.Scale) || math.IsInf(cfg.Scale, 0) {
		return fmt.Errorf("topology: scale must be a positive finite number, got %v", cfg.Scale)
	}
	return nil
}

// --- Baseline stages --------------------------------------------------
//
// Each stage is a pure transform over the Builder's dense world. The
// baseline stage list reproduces the paper's world; scenarios splice
// additional stages in between (see scenarios.go).

// maxMemberTarget bounds one exchange's membership target. Every 32-bit
// member named in an IXP's community filters takes one of its scheme's
// 16-bit private-ASN alias slots, and once the 16-bit pool is spent more
// than half of a large exchange's members hold 32-bit ASNs (53-59%
// measured at baseline Scale 3-3.8). Twice the slot count rejects every
// target seen exhausting the table (2124 and up, six seeds) while
// baseline Scale 3.5 (2009) still builds.
const maxMemberTarget = 2 * int(bgp.LastPrivate16-bgp.FirstPrivate16+1)

func (b *Builder) allocateASes() error {
	cfg := b.Cfg
	// The profile list is final here (scaled-world rewrites it one stage
	// earlier), and nothing has been built yet: reject a world that would
	// only fail at member-data encoding, after everything else was paid.
	for _, p := range b.profiles {
		if m := cfg.memberTarget(p); m > maxMemberTarget {
			return fmt.Errorf("%s would have %d members at scale %v, more than its community scheme's "+
				"16-bit alias table can name (limit %d): lower the scale, or use the scaled-world "+
				"scenario, which caps each exchange and grows the number of exchanges instead",
				p.Name, m, cfg.Scale, maxMemberTarget)
		}
	}
	// Pool sized so that IXP membership targets are satisfiable with
	// realistic reuse across IXPs.
	slots := 0
	for _, p := range b.profiles {
		slots += cfg.memberTarget(p)
	}
	n := slots*3/2 + 400
	used := b.usedASNs()
	next := bgp.ASN(1000)
	next32 := bgp.ASN(196800)
	alloc := func(want32 bool) bgp.ASN {
		for {
			var a bgp.ASN
			if want32 {
				a = next32
				next32 += bgp.ASN(1 + b.rng.Intn(23))
			} else {
				a = next
				next += bgp.ASN(1 + b.rng.Intn(29))
				if next >= bgp.FirstReserved32 {
					// 16-bit space exhausted at huge scales; spill to 32-bit.
					want32 = true
					continue
				}
			}
			if !used[a] && a.Routable() {
				used[a] = true
				return a
			}
		}
	}

	// AS population skew, leaning European like the measured ecosystem.
	regionDist := []regionWeight{
		{ixp.RegionWestEU, 26}, {ixp.RegionEastEU, 20}, {ixp.RegionNorthEU, 9},
		{ixp.RegionSouthEU, 13}, {ixp.RegionNorthAmerica, 16},
		{ixp.RegionAsiaPacific, 10}, {ixp.RegionLatinAmerica, 4}, {ixp.RegionAfrica, 2},
	}
	pickRegion := func() ixp.Region { return pickWeightedRegion(b.rng, regionDist) }

	numT2 := int(float64(n) * transitFrac)
	for i := 0; i < n; i++ {
		want32 := b.rng.Float64() < 0.07 && i >= numTier1
		as := AS{ASN: alloc(want32)}
		switch {
		case i < numTier1:
			as.Tier = Tier1
			as.Region = ixp.RegionWestEU
			if i%3 == 0 {
				as.Region = ixp.RegionNorthAmerica
			}
			as.Scope = peeringdb.ScopeGlobal
			if b.rng.Float64() < 0.6 {
				as.Policy = peeringdb.PolicySelective
			} else {
				as.Policy = peeringdb.PolicyRestrictive
			}
		case i < numTier1+numContent:
			as.Tier = Tier2
			as.Content = true
			as.Region = ixp.RegionWestEU
			as.Scope = peeringdb.ScopeGlobal
			as.Policy = peeringdb.PolicyOpen
		case i < numTier1+numContent+numT2:
			as.Tier = Tier2
			as.Region = pickRegion()
			switch r := b.rng.Float64(); {
			case r < 0.25:
				as.Scope = peeringdb.ScopeGlobal
			case r < 0.65 && as.Region.IsEurope():
				as.Scope = peeringdb.ScopeEurope
			default:
				as.Scope = peeringdb.ScopeRegional
			}
			switch r := b.rng.Float64(); {
			case r < 0.55:
				as.Policy = peeringdb.PolicyOpen
			case r < 0.90:
				as.Policy = peeringdb.PolicySelective
			default:
				as.Policy = peeringdb.PolicyRestrictive
			}
		default:
			as.Tier = TierStub
			as.Region = pickRegion()
			switch r := b.rng.Float64(); {
			case r < 0.12 && as.Region.IsEurope():
				as.Scope = peeringdb.ScopeEurope
			default:
				as.Scope = peeringdb.ScopeRegional
			}
			switch r := b.rng.Float64(); {
			case r < 0.80:
				as.Policy = peeringdb.PolicyOpen
			case r < 0.96:
				as.Policy = peeringdb.PolicySelective
			default:
				as.Policy = peeringdb.PolicyRestrictive
			}
		}
		as.Name = fmt.Sprintf("AS%s-%s", as.ASN, as.Region)
		as.StripsCommunities = b.rng.Float64() < stripProb
		as.OmitsDefaultALL = b.rng.Float64() < 0.30
		id := b.Add(as)
		switch {
		case as.Tier == Tier1:
			b.tier1IDs = append(b.tier1IDs, id)
		case as.Content:
			b.contentIDs = append(b.contentIDs, id)
		case as.Tier == Tier2:
			b.tier2IDs = append(b.tier2IDs, id)
		default:
			b.stubIDs = append(b.stubIDs, id)
		}
	}
	slices.Sort(b.Order)
	b.orderIDs = make([]int32, len(b.Order))
	for i, asn := range b.Order {
		b.orderIDs[i] = b.byASN[asn]
	}
	return nil
}

func (b *Builder) buildHierarchy() {
	// Tier-1 clique: full mesh of p2p.
	for i, a := range b.tier1IDs {
		for _, x := range b.tier1IDs[i+1:] {
			b.Peer(b.recs[a].ASN, b.recs[x].ASN)
		}
	}
	// Tier-2 (incl. content) attach to 1-3 tier-1 providers with
	// preferential attachment (weight = current customer count + 1).
	// The tier-1 pool is tiny, so a linear re-scan per choice is fine.
	attachSmall := func(id int32, pool []int32, k int) {
		asn := b.recs[id].ASN
		var chosen [4]int32
		nChosen := 0
		weights := make([]float64, len(pool))
		for nChosen < k && nChosen < len(pool) {
			total := 0.0
			for i, p := range pool {
				weights[i] = 0
				if p == id || slices.Contains(chosen[:nChosen], p) {
					continue
				}
				weights[i] = float64(len(b.recs[p].Customers) + 1)
				total += weights[i]
			}
			if total == 0 {
				break
			}
			x := b.rng.Float64() * total
			for i, p := range pool {
				x -= weights[i]
				if x <= 0 && weights[i] > 0 {
					chosen[nChosen] = p
					nChosen++
					b.Link(asn, b.recs[p].ASN)
					break
				}
			}
		}
	}
	for _, id := range b.tier2IDs {
		attachSmall(id, b.tier1IDs, 1+b.rng.Intn(3))
	}
	for _, id := range b.contentIDs {
		attachSmall(id, b.tier1IDs, 2+b.rng.Intn(2))
	}

	// Stubs are predominantly multihomed to same-region transits;
	// several of a stub's providers meeting at the regional IXP is what
	// makes its prefixes multi-advertised there (Fig. 5). The stub pass
	// dominated generation at scale (O(stubs × tier2) weight re-scans
	// through ASN-keyed maps); it now samples through one Fenwick tree
	// per region, each holding every tier-2's preferential-attachment
	// weight with the ×8 same-region boost baked in, updated as links
	// land: O(stubs × log tier2).
	nt2 := len(b.tier2IDs)
	if nt2 == 0 {
		return
	}
	trees := make([]*fenwick, ixp.NumRegions)
	base := make([]float64, nt2)
	boost := make([]float64, nt2) // per-region multiplier row, reused
	for r := 0; r < ixp.NumRegions; r++ {
		trees[r] = newFenwick(nt2)
		for i, id := range b.tier2IDs {
			w := float64(len(b.recs[id].Customers) + 1)
			base[i] = w
			if b.recs[id].Region == ixp.Region(r) {
				w *= 8
			}
			boost[i] = w
		}
		trees[r].build(boost)
	}
	mult := func(i int, r ixp.Region) float64 {
		if b.recs[b.tier2IDs[i]].Region == r {
			return 8
		}
		return 1
	}
	for _, sid := range b.stubIDs {
		k := 2 + b.rng.Intn(2)
		region := b.recs[sid].Region
		tree := trees[region]
		var chosen [4]int
		nChosen := 0
		for nChosen < k && nChosen < nt2 {
			total := tree.Total()
			if total <= 1e-12 {
				break
			}
			i := tree.Find(b.rng.Float64() * total)
			if slices.Contains(chosen[:nChosen], i) {
				// Removing a chosen entry subtracts its float weight,
				// which can leave a tiny residue in the tree; a draw
				// landing in that residue must not re-pick (and
				// double-subtract) the entry.
				break
			}
			chosen[nChosen] = i
			nChosen++
			b.Link(b.recs[sid].ASN, b.recs[b.tier2IDs[i]].ASN)
			// Remove from this stub's remaining choices.
			tree.Add(i, -base[i]*mult(i, region))
		}
		// Restore the chosen entries with their weight grown by the new
		// customer link, and propagate that growth to every region tree.
		for c := 0; c < nChosen; c++ {
			i := chosen[c]
			old := base[i]
			base[i] = old + 1
			for r := 0; r < ixp.NumRegions; r++ {
				m := mult(i, ixp.Region(r))
				if r == int(region) {
					trees[r].Add(i, base[i]*m) // was removed entirely
				} else {
					trees[r].Add(i, m) // weight grew by 1·mult
				}
			}
		}
	}
}

func (b *Builder) addSiblings() {
	// ~1% of tier-2s form sibling pairs with a same-region tier-2.
	n := len(b.tier2IDs) / 100
	for i := 0; i < n; i++ {
		x := &b.recs[b.tier2IDs[b.rng.Intn(len(b.tier2IDs))]]
		y := &b.recs[b.tier2IDs[b.rng.Intn(len(b.tier2IDs))]]
		if x == y || x.Region != y.Region {
			continue
		}
		x.Siblings = insertASN(x.Siblings, y.ASN)
		y.Siblings = insertASN(y.Siblings, x.ASN)
	}
}

func (b *Builder) addPrivatePeering() {
	// Sparse bilateral private peering between same-region tier-2s.
	for i, a := range b.tier2IDs {
		for _, c := range b.tier2IDs[i+1:] {
			if b.recs[a].Region != b.recs[c].Region {
				continue
			}
			if b.rng.Float64() < 0.015 {
				b.Peer(b.recs[a].ASN, b.recs[c].ASN)
			}
		}
	}
	// Content networks peer privately with a slice of the transit tier:
	// these private interconnects are why content ASes get EXCLUDEd at
	// route servers (§5.5).
	for _, c := range b.contentIDs {
		for _, x := range b.tier2IDs {
			if b.rng.Float64() < 0.10 {
				b.Peer(b.recs[c].ASN, b.recs[x].ASN)
			}
		}
	}
}

func (b *Builder) assignPrefixes() {
	for _, asn := range b.Order {
		as := b.AS(asn)
		var n int
		switch {
		case as.Content:
			n = 8 + b.rng.Intn(12)
		case as.Tier == Tier1:
			n = 10 + b.rng.Intn(14)
		case as.Tier == Tier2:
			n = 1 + b.rng.Intn(2*meanPrefixesTransit)
		default:
			n = 1 + b.rng.Intn(2*meanPrefixesStub)
		}
		for i := 0; i < n; i++ {
			bits := 24
			if b.rng.Float64() < 0.3 {
				bits = 22
			}
			region := as.Region
			if as.Content || as.Tier == Tier1 {
				// Global networks originate prefixes everywhere; this
				// is what makes "geographically distant" validation
				// prefixes meaningful.
				region = ixp.Region(b.rng.Intn(ixp.NumRegions))
			}
			as.Prefixes = append(as.Prefixes, b.allocPrefix(bits, region))
		}
	}
}

// eligibleIDs returns the membership candidate pool for an IXP region,
// as dense ids in ascending-ASN order.
func (b *Builder) eligibleIDs(region ixp.Region) []int32 {
	out := make([]int32, 0, len(b.orderIDs))
	for _, id := range b.orderIDs {
		as := &b.recs[id]
		switch {
		case as.Content:
			out = append(out, id)
		case as.Region == region:
			out = append(out, id)
		case as.Scope == peeringdb.ScopeGlobal:
			out = append(out, id)
		case as.Scope == peeringdb.ScopeEurope && region.IsEurope():
			out = append(out, id)
		}
	}
	return out
}

// buildIXPs samples every profile's membership on the worker pool: one
// (stage, IXP) random stream each, reading only the fixed AS slab, with
// the membership commit (IXP append, PeeringDB registration) applied in
// profile order.
func (b *Builder) buildIXPs() {
	b.fanOut("ixps", len(b.profiles),
		func(i int) string { return b.profiles[i].Name },
		func(rng *rand.Rand, pi int) func() { return b.buildOneIXP(rng, b.profiles[pi]) })
}

func (b *Builder) buildOneIXP(rng *rand.Rand, prof IXPProfile) func() {
	members := b.Cfg.memberTarget(prof)
	rsMembers := b.Cfg.rsMemberTarget(prof)
	if rsMembers > members {
		rsMembers = members
	}
	pool := b.eligibleIDs(prof.Region)
	weights := make([]float64, len(pool))
	for i, id := range pool {
		as := &b.recs[id]
		switch {
		case as.Content:
			weights[i] = 40
		case as.Tier == Tier1:
			weights[i] = 6
		case as.Tier == Tier2 && as.Region == prof.Region:
			weights[i] = 8
		case as.Tier == Tier2:
			weights[i] = 3
		case as.Region == prof.Region:
			weights[i] = 2.5
		default:
			weights[i] = 0.4
		}
	}
	// Sample in two passes: first the backbone of the membership,
	// then a co-location pass that prefers customers of already
	// selected transit members. ISPs bring their cones to the
	// exchange, and both provider and customer announcing the same
	// customer prefixes to the route server is what produces the
	// multi-advertiser prefixes of Fig. 5.
	memberIDs := weightedSampleIDs(rng, pool, weights, members*3/5)
	s := b.scratch()
	selected := s.member
	for _, id := range memberIDs {
		selected[id] = true
	}
	pool2 := make([]int32, 0, len(pool)-len(memberIDs))
	weights2 := make([]float64, 0, len(pool)-len(memberIDs))
	for i, id := range pool {
		if selected[id] {
			continue
		}
		w := weights[i]
		for _, p := range b.recs[id].Providers {
			if pid, ok := b.byASN[p]; ok && selected[pid] {
				// Weight accumulates per co-located provider:
				// multihomed customers of several members are the
				// strongest multi-advertiser source.
				w += 25
			}
		}
		pool2 = append(pool2, id)
		weights2 = append(weights2, w)
	}
	memberIDs = append(memberIDs, weightedSampleIDs(rng, pool2, weights2, members-len(memberIDs))...)
	clearMarks(selected, memberIDs)
	b.release(s)

	memberList := make([]bgp.ASN, len(memberIDs))
	for i, id := range memberIDs {
		memberList[i] = b.recs[id].ASN
	}

	// RS membership: weighted by actual peering policy (Fig. 9).
	joinProb := func(p peeringdb.Policy) float64 {
		switch p {
		case peeringdb.PolicyOpen:
			return 0.92
		case peeringdb.PolicySelective:
			return 0.75
		case peeringdb.PolicyRestrictive:
			return 0.43
		default:
			return 0.80
		}
	}
	shuffled := append([]bgp.ASN(nil), memberList...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var rs []bgp.ASN
	for _, m := range shuffled {
		if len(rs) >= rsMembers {
			break
		}
		if rng.Float64() < joinProb(b.AS(m).Policy) {
			rs = append(rs, m)
		}
	}
	// Pad if the probabilistic pass fell short of the target.
	for _, m := range shuffled {
		if len(rs) >= rsMembers {
			break
		}
		if !slices.Contains(rs, m) {
			rs = append(rs, m)
		}
	}

	var scheme ixp.Scheme
	if prof.Style == StylePrivateRange {
		scheme = ixp.PrivateRangeScheme(prof.RSASN)
	} else {
		scheme = ixp.StandardScheme(prof.RSASN)
	}
	info := &ixp.Info{
		Name:                prof.Name,
		Region:              prof.Region,
		Scheme:              scheme,
		Members:             memberList,
		RSMembers:           rs,
		HasLG:               prof.HasLG,
		PublishesMemberList: prof.PublishesMemberList,
		StripsCommunities:   prof.StripsCommunities,
		Transparent:         true,
		FlatFee:             prof.FlatFee,
	}

	// PeeringDB registration draws happen here, unconditionally, so
	// they cannot depend on what other IXPs committed; the commit
	// applies them only to members still unregistered at its turn.
	regDraw := make([]bool, len(memberList))
	for i := range memberList {
		regDraw[i] = rng.Float64() < registeredFrac
	}

	return func() {
		b.IXPs = append(b.IXPs, info)
		for i, m := range memberList {
			as := b.AS(m)
			if !as.Registered {
				as.Registered = regDraw[i] || as.Content
			}
		}
	}
}
