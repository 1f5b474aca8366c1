package topology

import (
	"math/rand"
	"sort"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
	"mlpeering/internal/peeringdb"
)

// openBehaveProb is the probability a member behaves openly at a route
// server (allows ≳90% of members) given its actual policy; the residual
// mass behaves closed (NONE+INCLUDE with a short list). Tuned to the
// means of Fig. 11: 96.7% / 80.4% / 69.2%.
func openBehaveProb(p peeringdb.Policy) float64 {
	switch p {
	case peeringdb.PolicyOpen:
		return 0.97
	case peeringdb.PolicySelective:
		return 0.80
	case peeringdb.PolicyRestrictive:
		return 0.69
	default:
		return 0.90
	}
}

// generateFilters synthesizes every route-server member's export and
// import policy, one IXP per worker-pool task: filter synthesis only
// reads the relationship graph (fixed since the hierarchy stages) and
// writes the per-IXP filter maps in its commit.
func (b *Builder) generateFilters() {
	b.fanOutIXPs("filters", func(rng *rand.Rand, xi int) func() {
		info := b.IXPs[xi]
		exp := make(map[bgp.ASN]ixp.ExportFilter, len(info.RSMembers))
		imp := make(map[bgp.ASN]ixp.ExportFilter, len(info.RSMembers))
		members := info.SortedRSMembers()
		s := b.scratch()
		memberVisited := make([]int32, 0, len(members))
		for _, m := range members {
			if id, ok := b.byASN[m]; ok {
				s.member[id] = true
				memberVisited = append(memberVisited, id)
			}
		}

		for _, m := range members {
			as := b.AS(m)
			var ef ixp.ExportFilter
			if rng.Float64() < openBehaveProb(as.Policy) {
				ef = b.openExportFilter(rng, s, m, members)
			} else {
				ef = b.closedExportFilter(rng, m, members)
			}
			exp[m] = ef
			imp[m] = b.importFromExport(rng, ef)
		}
		clearMarks(s.member, memberVisited)
		b.release(s)
		return func() {
			b.ExportFilters[info.Name] = exp
			b.ImportFilters[info.Name] = imp
		}
	})
}

// openExportFilter builds an ALL+EXCLUDE policy. Exclusions follow the
// paper's observed composition (§5.5): mostly ASes within the member's
// customer cone (one does not need route-server routes toward one's own
// downstream), plus content networks reached over preferred private
// interconnects, plus a little noise. s.member must mark the RS member
// ids of the IXP under construction.
func (b *Builder) openExportFilter(rng *rand.Rand, s *denseScratch, m bgp.ASN, members []bgp.ASN) ixp.ExportFilter {
	as := b.AS(m)
	var excludes []bgp.ASN

	// Customer-cone exclusions: direct customers excluded rarely (the
	// paper found only 12% of EXCLUDEs are provider-blocks-customer),
	// deeper cone members more often. The cone is marked on the dense
	// scratch plane instead of a per-member ASN map.
	if as.Tier != TierStub {
		mid := b.byASN[m]
		coneVisited := b.markCustomerCone(mid, s, s.visited[:0])
		for _, other := range members {
			oid, ok := b.byASN[other]
			if !ok || other == m || !s.marks[oid] {
				continue
			}
			direct := as.HasCustomer(other)
			p := 0.50
			if direct {
				p = 0.15
			}
			if rng.Float64() < p {
				excludes = append(excludes, other)
			}
		}
		clearMarks(s.marks, coneVisited)
		s.visited = coneVisited[:0]
	}

	// Private-interconnect exclusions: members that peer bilaterally
	// with a content network prefer the direct path and repel the RS
	// routes (the Google/Akamai behaviour of §5.5).
	for _, cid := range b.contentIDs {
		c := b.recs[cid].ASN
		if c == m || !s.member[cid] {
			continue
		}
		if as.HasPeer(c) && rng.Float64() < 0.75 {
			excludes = append(excludes, c)
		}
	}

	// Background noise: occasional unexplained exclusions.
	if rng.Float64() < 0.08 && len(members) > 2 {
		other := members[rng.Intn(len(members))]
		if other != m {
			excludes = append(excludes, other)
		}
	}

	return ixp.NewExportFilter(ixp.ModeAllExcept, excludes...)
}

// closedExportFilter builds a NONE+INCLUDE policy with a short include
// list (the bottom cluster of Fig. 11).
func (b *Builder) closedExportFilter(rng *rand.Rand, m bgp.ASN, members []bgp.ASN) ixp.ExportFilter {
	maxInc := len(members) / 12
	if maxInc < 2 {
		maxInc = 2
	}
	n := 1 + rng.Intn(maxInc)
	var includes []bgp.ASN
	seen := map[bgp.ASN]bool{m: true}
	for len(includes) < n && len(seen) < len(members) {
		cand := members[rng.Intn(len(members))]
		if seen[cand] {
			continue
		}
		seen[cand] = true
		// Prefer content networks and same-region members as peering
		// targets for selective networks.
		w := 0.35
		if b.AS(cand).Content {
			w = 0.9
		} else if b.AS(cand).Region == b.AS(m).Region {
			w = 0.6
		}
		if rng.Float64() < w {
			includes = append(includes, cand)
		}
	}
	return ixp.NewExportFilter(ixp.ModeNoneExcept, includes...)
}

// importFromExport derives the member's import filter. Per the §4.4
// measurement, imports are never more restrictive and about half are
// strictly more permissive.
func (b *Builder) importFromExport(rng *rand.Rand, ef ixp.ExportFilter) ixp.ExportFilter {
	relax := rng.Float64() < 0.5
	switch ef.Mode {
	case ixp.ModeAllExcept:
		var keep []bgp.ASN
		for _, p := range ef.PeerList() {
			if relax && rng.Float64() < 0.5 {
				continue // accept routes from an AS we do not send to
			}
			keep = append(keep, p)
		}
		return ixp.NewExportFilter(ixp.ModeAllExcept, keep...)
	default:
		includes := ef.PeerList()
		if relax {
			// A NONE+INCLUDE member that accepts from everyone is
			// modeled as an open import.
			if rng.Float64() < 0.3 {
				return ixp.OpenFilter()
			}
		}
		return ixp.NewExportFilter(ixp.ModeNoneExcept, includes...)
	}
}

// addBilateralIXPPeering creates bilateral sessions across the IXP
// fabrics: the links the paper's method cannot see (§5.8). Non-RS
// members rely on them entirely; some RS members hold them in parallel.
// Pair selection is pure per-IXP compute; the Peer-set and link-map
// mutations land in the ordered commits.
func (b *Builder) addBilateralIXPPeering() {
	b.fanOutIXPs("bilateral-ixp", func(rng *rand.Rand, xi int) func() {
		info := b.IXPs[xi]
		s := b.scratch()
		rsSet := s.member
		rsVisited := make([]int32, 0, len(info.RSMembers))
		for _, m := range info.RSMembers {
			if id, ok := b.byASN[m]; ok {
				rsSet[id] = true
				rsVisited = append(rsVisited, id)
			}
		}
		var nonRS []bgp.ASN
		for _, m := range info.Members {
			if id, ok := b.byASN[m]; ok && !rsSet[id] {
				nonRS = append(nonRS, m)
			}
		}
		clearMarks(rsSet, rsVisited)
		b.release(s)
		sort.Slice(nonRS, func(i, j int) bool { return nonRS[i] < nonRS[j] })

		var pairs [][2]bgp.ASN
		addBilateral := func(x, y bgp.ASN) {
			// A bilateral session never shadows an existing transit
			// relationship: a customer buys reachability from its
			// provider and does not also peer with it on the fabric.
			if xs := b.AS(x); xs.HasProvider(y) || xs.HasCustomer(y) {
				return
			}
			pairs = append(pairs, [2]bgp.ASN{x, y})
		}

		// Bilateral-only members peer selectively with each other
		// (density well below the multilateral 80-95%, per §5.4).
		for i, x := range nonRS {
			for _, y := range nonRS[i+1:] {
				if rng.Float64() < 0.30 {
					addBilateral(x, y)
				}
			}
		}
		// ... and with a slice of the RS members.
		for _, x := range nonRS {
			for _, y := range info.RSMembers {
				if rng.Float64() < 0.10 {
					addBilateral(x, y)
				}
			}
		}
		// A few RS member pairs also hold parallel bilateral sessions;
		// combined with PrefersBilateral routers these hide RS paths
		// from best-path looking glasses (Fig. 8).
		members := info.SortedRSMembers()
		for i := 0; i < len(members)/4; i++ {
			x := members[rng.Intn(len(members))]
			y := members[rng.Intn(len(members))]
			if x != y {
				addBilateral(x, y)
			}
		}

		return func() {
			for _, p := range pairs {
				b.Peer(p[0], p[1])
				key := MakeLinkKey(p[0], p[1])
				b.BilateralIXP[key] = append(b.BilateralIXP[key], info.Name)
			}
		}
	})
}

// pickFeeders selects the collector vantage points.
func (b *Builder) pickFeeders() {
	seen := make(map[bgp.ASN]bool)
	addFeeder := func(asn bgp.ASN, kind FeedKind) {
		if seen[asn] {
			return
		}
		seen[asn] = true
		b.Feeders = append(b.Feeders, Feeder{ASN: asn, Kind: kind})
	}

	// Per-IXP RS feeders: RS members (transit preferred) contributing
	// full feeds. Their import openness is throttled to the profile's
	// PassiveOpenness, which is what bounds passive coverage (Table 2's
	// "Pasv" column).
	coverage := make(map[string][]bgp.ASN) // per IXP: members visible passively
	for _, prof := range b.profiles {
		info := b.IXPByName(prof.Name)
		if info == nil {
			continue
		}
		members := info.SortedRSMembers()
		for _, m := range members {
			if b.rng.Float64() < prof.PassiveOpenness {
				coverage[prof.Name] = append(coverage[prof.Name], m)
			}
		}
		if prof.RSFeeders == 0 {
			continue
		}
		// Prefer transit members: they are the networks that actually
		// feed Route Views / RIS.
		var cands []bgp.ASN
		for _, m := range members {
			if b.AS(m).Tier == Tier2 && !b.AS(m).Content {
				cands = append(cands, m)
			}
		}
		if len(cands) == 0 {
			cands = members
		}
		b.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		n := prof.RSFeeders
		if n > len(cands) {
			n = len(cands)
		}
		for i := 0; i < n; i++ {
			m := cands[i]
			b.AS(m).StripsCommunities = false
			addFeeder(m, FeedFull)
		}
	}

	// Every full-feed feeder's view of every route server it sits on is
	// capped by that IXP's coverage list — including feeders designated
	// for another IXP, which would otherwise leak their open local view
	// into the archives.
	throttleAll := func() {
		for _, f := range b.Feeders {
			if f.Kind != FeedFull {
				continue
			}
			for _, prof := range b.profiles {
				info := b.IXPByName(prof.Name)
				if info == nil || !info.IsRSMember(f.ASN) {
					continue
				}
				if prof.PassiveOpenness >= 0.95 {
					continue
				}
				b.throttleFeederImport(info, f.ASN, coverage[prof.Name])
			}
		}
	}
	defer throttleAll()

	// Background feeders building out the public view; two-thirds are
	// peer-style (customer routes only), per §2.3. Feeders that are RS
	// members themselves always peer with the collector: otherwise they
	// would leak their full route-server view and void the per-IXP
	// passive coverage limits of Table 2.
	rsMemberAnywhere := make(map[bgp.ASN]bool)
	for _, info := range b.IXPs {
		for _, m := range info.RSMembers {
			rsMemberAnywhere[m] = true
		}
	}
	pool := append(append([]bgp.ASN(nil), b.tier1...), b.tier2...)
	b.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	added := 0
	for _, asn := range pool {
		if added >= b.Cfg.ExtraFeeders {
			break
		}
		if seen[asn] {
			continue
		}
		kind := FeedCustomerOnly
		if !rsMemberAnywhere[asn] && b.rng.Float64() < 0.25 {
			kind = FeedFull
		}
		addFeeder(asn, kind)
		added++
	}
	sort.Slice(b.Feeders, func(i, j int) bool { return b.Feeders[i].ASN < b.Feeders[j].ASN })
}

// throttleFeederImport replaces the feeder's import (and export, to
// respect the §4.4 invariant) with a NONE+INCLUDE pair sized to the
// coverage list.
func (b *Builder) throttleFeederImport(info *ixp.Info, feeder bgp.ASN, coverage []bgp.ASN) {
	var inc []bgp.ASN
	for _, m := range coverage {
		if m != feeder {
			inc = append(inc, m)
		}
	}
	impF := ixp.NewExportFilter(ixp.ModeNoneExcept, inc...)
	// Export ⊆ import: drop ~20% from the export list.
	var expList []bgp.ASN
	for _, m := range inc {
		if b.rng.Float64() < 0.8 {
			expList = append(expList, m)
		}
	}
	b.ImportFilters[info.Name][feeder] = impF
	b.ExportFilters[info.Name][feeder] = ixp.NewExportFilter(ixp.ModeNoneExcept, expList...)
}

// pickLookingGlasses selects member LGs per IXP (active data sources)
// and the validation LG population (§5.1).
func (b *Builder) pickLookingGlasses() {
	usedLG := make(map[bgp.ASN]bool)

	// Member LGs: RS members whose LG exposes the RS feed; used for
	// active collection at IXPs without their own LG.
	for _, prof := range b.profiles {
		info := b.IXPByName(prof.Name)
		if info == nil {
			continue
		}
		members := info.SortedRSMembers()
		b.rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		n := prof.MemberLGs
		for _, m := range members {
			if n == 0 {
				break
			}
			if usedLG[m] {
				continue
			}
			usedLG[m] = true
			b.MemberLGs[prof.Name] = append(b.MemberLGs[prof.Name],
				LGHost{ASN: m, AllPaths: b.rng.Float64() < 0.85})
			n--
		}
	}

	// Validation LGs: RS members or customers of RS members. Most
	// public LGs belong to the networks themselves, so members dominate
	// the pool; a quarter are hosted by member customers.
	var memberPool, customerPool []bgp.ASN
	seen := make(map[bgp.ASN]bool)
	for _, info := range b.IXPs {
		for _, m := range info.RSMembers {
			if !seen[m] {
				seen[m] = true
				memberPool = append(memberPool, m)
			}
			for _, c := range b.AS(m).Customers {
				if !seen[c] {
					seen[c] = true
					customerPool = append(customerPool, c)
				}
			}
		}
	}
	sort.Slice(memberPool, func(i, j int) bool { return memberPool[i] < memberPool[j] })
	sort.Slice(customerPool, func(i, j int) bool { return customerPool[i] < customerPool[j] })
	b.rng.Shuffle(len(memberPool), func(i, j int) { memberPool[i], memberPool[j] = memberPool[j], memberPool[i] })
	b.rng.Shuffle(len(customerPool), func(i, j int) { customerPool[i], customerPool[j] = customerPool[j], customerPool[i] })
	take := func(pool []bgp.ASN, n int) {
		for _, asn := range pool {
			if n == 0 || len(b.ValidationLGs) >= b.Cfg.ValidationLGs {
				return
			}
			if usedLG[asn] {
				continue
			}
			usedLG[asn] = true
			host := LGHost{ASN: asn, AllPaths: b.rng.Float64() >= bestPathLGFrac}
			if b.rng.Float64() < prefersBilateralFrac {
				b.AS(asn).PrefersBilateral = true
			}
			b.ValidationLGs = append(b.ValidationLGs, host)
			n--
		}
	}
	take(memberPool, b.Cfg.ValidationLGs*3/4)
	take(customerPool, b.Cfg.ValidationLGs)
	take(memberPool, b.Cfg.ValidationLGs) // top up if customers ran out
}
