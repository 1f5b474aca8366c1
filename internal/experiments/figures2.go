package experiments

import (
	"fmt"
	"sort"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
	"mlpeering/internal/metrics"
	"mlpeering/internal/peeringdb"
	"mlpeering/internal/relation"
)

// Figure9Result reproduces RS participation by self-reported policy.
type Figure9Result struct {
	// Per policy: members registered with that policy, and how many of
	// them connect to at least one route server.
	Participation map[peeringdb.Policy]struct{ Total, OnRS int }
}

// Figure9 joins RS membership against PeeringDB policies.
func (c *Context) Figure9() *Figure9Result {
	res := &Figure9Result{Participation: make(map[peeringdb.Policy]struct{ Total, OnRS int })}
	topo := c.World.Topo

	memberSet := make(map[bgp.ASN]bool)
	rsSet := make(map[bgp.ASN]bool)
	for _, info := range topo.IXPs {
		for _, m := range info.Members {
			memberSet[m] = true
		}
		for _, m := range info.RSMembers {
			rsSet[m] = true
		}
	}
	for m := range memberSet {
		pol := c.World.PDB.Policy(m)
		if pol == peeringdb.PolicyUnknown {
			continue
		}
		agg := res.Participation[pol]
		agg.Total++
		if rsSet[m] {
			agg.OnRS++
		}
		res.Participation[pol] = agg
	}
	return res
}

// Render formats Figure 9.
func (r *Figure9Result) Render() *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 9: route server participation vs self-reported policy",
		Columns: []string{"policy", "registered members", "on a route server", "fraction", "paper"},
	}
	paper := map[peeringdb.Policy]string{
		peeringdb.PolicyOpen:        "92%",
		peeringdb.PolicySelective:   "75%",
		peeringdb.PolicyRestrictive: "43%",
	}
	for _, pol := range []peeringdb.Policy{peeringdb.PolicyOpen, peeringdb.PolicySelective, peeringdb.PolicyRestrictive} {
		agg := r.Participation[pol]
		t.AddRow(pol.String(), agg.Total, agg.OnRS, metrics.Pct(metrics.Ratio(agg.OnRS, agg.Total)), paper[pol])
	}
	return t
}

// Figure10Result reproduces the IXP-presence × RS-participation matrix.
type Figure10Result struct {
	// Matrix[presences][participations] = fraction of ASes.
	Matrix map[[2]int]float64
	// SingleIXPOnRS is the diagonal (1,1) cell (paper: 55.8%).
	SingleIXPOnRS float64
	// NoRS is the fraction using no route server at all (13.4%).
	NoRS float64
	// ASes is the population size.
	ASes int
}

// Figure10 counts IXP presences against RS participations per AS.
func (c *Context) Figure10() *Figure10Result {
	topo := c.World.Topo
	presence := make(map[bgp.ASN]int)
	participation := make(map[bgp.ASN]int)
	for _, info := range topo.IXPs {
		for _, m := range info.Members {
			presence[m]++
		}
		for _, m := range info.RSMembers {
			participation[m]++
		}
	}
	res := &Figure10Result{Matrix: make(map[[2]int]float64), ASes: len(presence)}
	if res.ASes == 0 {
		return res
	}
	for asn, pres := range presence {
		part := participation[asn]
		res.Matrix[[2]int{pres, part}]++
		if pres == 1 && part == 1 {
			res.SingleIXPOnRS++
		}
		if part == 0 {
			res.NoRS++
		}
	}
	n := float64(res.ASes)
	for k := range res.Matrix {
		res.Matrix[k] /= n
	}
	res.SingleIXPOnRS /= n
	res.NoRS /= n
	return res
}

// Render formats Figure 10.
func (r *Figure10Result) Render() *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 10: IXP presences vs route server participations",
		Columns: []string{"presences", "participations", "fraction"},
	}
	keys := make([][2]int, 0, len(r.Matrix))
	for k := range r.Matrix {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		if r.Matrix[k] < 0.001 {
			continue
		}
		t.AddRow(k[0], k[1], metrics.Pct(r.Matrix[k]))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("single IXP + its RS: %s (paper 55.8%%); no RS anywhere: %s (paper 13.4%%); %d ASes",
			metrics.Pct(r.SingleIXPOnRS), metrics.Pct(r.NoRS), r.ASes))
	return t
}

// Figure11Result reproduces the export-filter openness analysis.
type Figure11Result struct {
	// AllowedFrac holds, per policy, the per-member fraction of RS
	// members allowed to receive routes.
	AllowedFrac map[peeringdb.Policy]*metrics.Distribution
	// Means per policy (paper: 96.7 / 80.4 / 69.2%).
	Means map[peeringdb.Policy]float64
	// BimodalFrac is the fraction of members allowing either >=90% or
	// <=10% of the other members.
	BimodalFrac float64
}

// Figure11 analyses reconstructed export filters by policy.
func (c *Context) Figure11() *Figure11Result {
	res := &Figure11Result{
		AllowedFrac: make(map[peeringdb.Policy]*metrics.Distribution),
		Means:       make(map[peeringdb.Policy]float64),
	}
	samples := make(map[peeringdb.Policy][]float64)
	bimodal, total := 0, 0
	for name, x := range c.Run.Result.PerIXP {
		entry := c.Run.Dict.ByName(name)
		if entry == nil {
			continue
		}
		members := entry.Members()
		if len(members) < 2 {
			continue
		}
		for m, f := range x.Filters {
			frac := float64(f.AllowedCount(members, m)) / float64(len(members)-1)
			pol := c.World.PDB.Policy(m)
			samples[pol] = append(samples[pol], frac)
			total++
			if frac >= 0.9 || frac <= 0.1 {
				bimodal++
			}
		}
	}
	for pol, s := range samples {
		d := metrics.NewDistribution(s)
		res.AllowedFrac[pol] = d
		res.Means[pol] = d.Mean()
	}
	res.BimodalFrac = metrics.Ratio(bimodal, total)
	return res
}

// Render formats Figure 11.
func (r *Figure11Result) Render() *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 11: fraction of RS members allowed, by policy",
		Columns: []string{"policy", "members", "mean allowed", "paper mean"},
	}
	paper := map[peeringdb.Policy]string{
		peeringdb.PolicyOpen:        "96.7%",
		peeringdb.PolicySelective:   "80.4%",
		peeringdb.PolicyRestrictive: "69.2%",
	}
	for _, pol := range []peeringdb.Policy{peeringdb.PolicyOpen, peeringdb.PolicySelective, peeringdb.PolicyRestrictive, peeringdb.PolicyUnknown} {
		d, ok := r.AllowedFrac[pol]
		if !ok {
			continue
		}
		t.AddRow(pol.String(), d.Len(), metrics.Pct(r.Means[pol]), paper[pol])
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"binary pattern: %s of members allow >=90%% or <=10%% of peers", metrics.Pct(r.BimodalFrac)))
	return t
}

// Figure12Result reproduces peering density per IXP.
type Figure12Result struct {
	Rows []struct {
		IXP     string
		Members int
		Mean    float64
	}
}

// Figure12 computes, for IXPs with full LG connectivity, the per-member
// fraction of realizable RS peerings actually established.
func (c *Context) Figure12() *Figure12Result {
	res := &Figure12Result{}
	for _, name := range c.ixpOrder() {
		info := c.World.Topo.IXPByName(name)
		x := c.Run.Result.PerIXP[name]
		if info == nil || x == nil || !info.HasLG {
			continue
		}
		covered := x.CoveredMembers()
		if len(covered) < 3 {
			continue
		}
		deg := make(map[bgp.ASN]int)
		for link := range x.Links {
			deg[link.A]++
			deg[link.B]++
		}
		var sum float64
		for _, m := range covered {
			sum += float64(deg[m]) / float64(len(covered)-1)
		}
		res.Rows = append(res.Rows, struct {
			IXP     string
			Members int
			Mean    float64
		}{name, len(covered), sum / float64(len(covered))})
	}
	return res
}

// Render formats Figure 12.
func (r *Figure12Result) Render() *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 12: density of RS peering per IXP",
		Columns: []string{"IXP", "covered members", "mean density"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.IXP, row.Members, fmt.Sprintf("%.2f", row.Mean))
	}
	t.Notes = append(t.Notes, "paper: means between 0.79 and 0.95")
	return t
}

// Figure13Result reproduces the repeller analysis.
type Figure13Result struct {
	// BlockCounts: how many times each AS is excluded.
	BlockCounts map[bgp.ASN]int
	// ByScope: distribution of block counts by the blocked AS's scope.
	ByScope map[peeringdb.Scope]*metrics.Distribution
	// TotalExcludes is the number of EXCLUDE applications (paper 1,795).
	TotalExcludes int
	// BlockedASes is the number of ASes excluded at least once (570).
	BlockedASes int
	// ConeFrac: excludes targeting the blocker's customer cone (77%).
	ConeFrac float64
	// DirectCustomerFrac: provider blocking a direct customer (12%).
	DirectCustomerFrac float64
	// TopRepeller and its counts (the paper's Google anecdote).
	TopRepeller        bgp.ASN
	TopRepellerBlocks  int
	TopRepellerSources int
}

// Figure13 analyses EXCLUDE usage across all reconstructed filters.
func (c *Context) Figure13() *Figure13Result {
	res := &Figure13Result{
		BlockCounts: make(map[bgp.ASN]int),
		ByScope:     make(map[peeringdb.Scope]*metrics.Distribution),
	}
	rels := c.Run.Passive.Rels
	blockers := make(map[bgp.ASN]map[bgp.ASN]bool)
	cone, direct := 0, 0
	blockerCone := make(map[bgp.ASN]bool) // reused across blockers
	for name, x := range c.Run.Result.PerIXP {
		_ = name
		for blocker, f := range x.Filters {
			if f.Mode != ixp.ModeAllExcept {
				continue
			}
			clear(blockerCone)
			rels.ForEachConeMember(blocker, func(a bgp.ASN) bool {
				blockerCone[a] = true
				return true
			})
			for _, blocked := range f.PeerList() {
				res.TotalExcludes++
				res.BlockCounts[blocked]++
				if blockers[blocked] == nil {
					blockers[blocked] = make(map[bgp.ASN]bool)
				}
				blockers[blocked][blocker] = true
				if blockerCone[blocked] && blocked != blocker {
					cone++
				}
				if rels.Relationship(blocked, blocker) == relation.RelC2P {
					direct++
				}
			}
		}
	}
	res.BlockedASes = len(res.BlockCounts)
	res.ConeFrac = metrics.Ratio(cone, res.TotalExcludes)
	res.DirectCustomerFrac = metrics.Ratio(direct, res.TotalExcludes)

	byScope := make(map[peeringdb.Scope][]int)
	for blocked, count := range res.BlockCounts {
		sc := c.World.PDB.Scope(blocked)
		byScope[sc] = append(byScope[sc], count)
	}
	res.TopRepeller, res.TopRepellerBlocks = topRepeller(res.BlockCounts)
	res.TopRepellerSources = len(blockers[res.TopRepeller])
	for sc, counts := range byScope {
		res.ByScope[sc] = metrics.NewDistributionInts(counts)
	}
	return res
}

// topRepeller returns the most-blocked AS and its count; a tie goes to
// the lowest ASN, so the answer does not depend on map order.
func topRepeller(blockCounts map[bgp.ASN]int) (top bgp.ASN, blocks int) {
	for blocked, count := range blockCounts {
		if count > blocks || (count == blocks && blocked < top) {
			top, blocks = blocked, count
		}
	}
	return top, blocks
}

// Render formats Figure 13.
func (r *Figure13Result) Render() *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 13: repellers by geographic scope",
		Columns: []string{"scope", "blocked ASes", "max blocks", "median"},
	}
	for _, sc := range []peeringdb.Scope{peeringdb.ScopeGlobal, peeringdb.ScopeEurope, peeringdb.ScopeRegional, peeringdb.ScopeUnknown} {
		d, ok := r.ByScope[sc]
		if !ok {
			continue
		}
		t.AddRow(sc.String(), d.Len(), fmt.Sprintf("%.0f", d.Quantile(1)), fmt.Sprintf("%.0f", d.Quantile(0.5)))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d EXCLUDE applications over %d blocked ASes (paper: 1,795 over 570)",
			r.TotalExcludes, r.BlockedASes),
		fmt.Sprintf("%s within blocker's customer cone (paper 77%%); %s provider-blocks-customer (paper 12%%)",
			metrics.Pct(r.ConeFrac), metrics.Pct(r.DirectCustomerFrac)),
		fmt.Sprintf("top repeller AS%s blocked %d times by %d ASes (paper: Google 82 times by 75)",
			r.TopRepeller, r.TopRepellerBlocks, r.TopRepellerSources))
	return t
}
