package experiments

import (
	"fmt"
	"sort"

	"mlpeering/internal/bgp"
	"mlpeering/internal/metrics"
)

// Figure1Result reproduces the session-scaling comparison of Fig. 1:
// a full mesh needs n(n-1)/2 bilateral sessions; multilateral peering
// needs c*n sessions against c route servers.
type Figure1Result struct {
	Rows []struct {
		IXP                     string
		Members                 int
		Bilateral, Multilateral int
	}
	RouteServers int
}

// Figure1 computes session counts for every IXP (c = 2 redundant route
// servers, the common deployment).
func (c *Context) Figure1() *Figure1Result {
	const routeServers = 2
	res := &Figure1Result{RouteServers: routeServers}
	for _, name := range c.ixpOrder() {
		info := c.World.Topo.IXPByName(name)
		if info == nil {
			continue
		}
		n := len(info.RSMembers)
		res.Rows = append(res.Rows, struct {
			IXP                     string
			Members                 int
			Bilateral, Multilateral int
		}{name, n, n * (n - 1) / 2, routeServers * n})
	}
	return res
}

// Render formats Figure 1.
func (r *Figure1Result) Render() *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 1: bilateral vs multilateral session scaling",
		Columns: []string{"IXP", "Members", "Bilateral n(n-1)/2", "Multilateral c*n"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.IXP, row.Members, row.Bilateral, row.Multilateral)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("c = %d route servers", r.RouteServers))
	return t
}

// Figure5Result reproduces the CCDF of the number of RS members
// advertising a prefix (DE-CIX in the paper; 48.4% multi-member).
type Figure5Result struct {
	IXP             string
	CCDF            *metrics.Series
	MultiMemberFrac float64
	Prefixes        int
}

// Figure5 computes the advertiser-multiplicity distribution from the
// active survey of the named IXP (default DE-CIX).
func (c *Context) Figure5(ixpName string) *Figure5Result {
	if ixpName == "" {
		ixpName = "DE-CIX"
	}
	mult := c.Run.Active.PrefixMultiplicity[ixpName]
	var counts []int
	multi := 0
	//mlplint:ordered NewDistributionInts sorts the sample; the multi counter is commutative
	for _, m := range mult {
		counts = append(counts, m)
		if m > 1 {
			multi++
		}
	}
	d := metrics.NewDistributionInts(counts)
	return &Figure5Result{
		IXP:             ixpName,
		CCDF:            d.CCDF("members advertising prefix"),
		MultiMemberFrac: metrics.Ratio(multi, len(counts)),
		Prefixes:        len(counts),
	}
}

// Render formats Figure 5.
func (r *Figure5Result) Render() *metrics.Table {
	t := &metrics.Table{
		Title:   fmt.Sprintf("Figure 5: CCDF of RS members advertising a prefix (%s)", r.IXP),
		Columns: []string{"members >= x", "fraction"},
	}
	for i := range r.CCDF.X {
		if i > 12 {
			break
		}
		t.AddRow(fmt.Sprintf("%.0f", r.CCDF.X[i]), fmt.Sprintf("%.3f", r.CCDF.Y[i]))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"%s of %d prefixes advertised by more than one member (paper: 48.4%%)",
		metrics.Pct(r.MultiMemberFrac), r.Prefixes))
	return t
}

// Figure6Result reproduces the visibility comparison: per RS member,
// MLP-inferred peerings vs passive-BGP-visible vs traceroute-visible.
type Figure6Result struct {
	// Ranked series: members ordered by MLP degree descending.
	MLP, Passive, Active *metrics.Series

	TotalMLPLinks     int
	PublicPeerLinks   int     // p2p links visible in public BGP
	SharedLinks       int     // MLP ∩ public p2p
	InvisibleFrac     float64 // MLP links absent from public BGP paths
	MorePeeringsFrac  float64 // (MLP links)/(public p2p) - 1
	PublicASLinks     int
	ASLinkIncreasePct float64 // AS links added to the public graph
	TracerouteOverlap int
}

// Figure6 builds the ranked member comparison.
func (c *Context) Figure6() *Figure6Result {
	res := &Figure6Result{TotalMLPLinks: c.Run.Result.TotalLinks()}

	publicLinks := c.Run.Passive.Links
	publicP2P := c.PublicP2PLinks()
	traceroute := c.TracerouteLinks()

	res.PublicPeerLinks = len(publicP2P)
	res.PublicASLinks = len(publicLinks)
	invisible := 0
	for link := range c.Run.Result.Links {
		if !publicLinks[link] {
			invisible++
		}
		if publicP2P[link] {
			res.SharedLinks++
		}
		if traceroute[link] {
			res.TracerouteOverlap++
		}
	}
	// The links invisible in public BGP are also those the MLP inference
	// adds to the public AS graph.
	res.InvisibleFrac = metrics.Ratio(invisible, res.TotalMLPLinks)
	res.ASLinkIncreasePct = metrics.Ratio(invisible, res.PublicASLinks)
	if res.PublicPeerLinks > 0 {
		res.MorePeeringsFrac = float64(res.TotalMLPLinks)/float64(res.PublicPeerLinks) - 1
	}

	mlpDeg := incidentCount(c.Run.Result.Links)
	pasvDeg := incidentCount(publicP2P)
	actDeg := incidentCount(traceroute)

	members := make([]bgp.ASN, 0, len(mlpDeg))
	for m := range mlpDeg {
		members = append(members, m)
	}
	sort.Slice(members, func(i, j int) bool {
		if mlpDeg[members[i]] != mlpDeg[members[j]] {
			return mlpDeg[members[i]] > mlpDeg[members[j]]
		}
		return members[i] < members[j]
	})
	mlp := &metrics.Series{Name: "MLP"}
	pasv := &metrics.Series{Name: "Passive"}
	act := &metrics.Series{Name: "Active"}
	for rank, m := range members {
		x := float64(rank)
		mlp.X, mlp.Y = append(mlp.X, x), append(mlp.Y, float64(mlpDeg[m]))
		pasv.X, pasv.Y = append(pasv.X, x), append(pasv.Y, float64(pasvDeg[m]))
		act.X, act.Y = append(act.X, x), append(act.Y, float64(actDeg[m]))
	}
	res.MLP, res.Passive, res.Active = mlp, pasv, act
	return res
}

// Render formats Figure 6's headline numbers.
func (r *Figure6Result) Render() *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 6: MLP vs passive vs active visibility",
		Columns: []string{"metric", "value", "paper"},
	}
	t.AddRow("MLP links inferred", r.TotalMLPLinks, "206,667")
	t.AddRow("public p2p links", r.PublicPeerLinks, "58,952")
	t.AddRow("shared (MLP ∩ public p2p)", r.SharedLinks, "24,511 (11.9%)")
	t.AddRow("MLP links invisible in BGP", metrics.Pct(r.InvisibleFrac), "88%")
	t.AddRow("more peering links than public", metrics.Pct(r.MorePeeringsFrac), "209%")
	t.AddRow("AS-link increase over public", metrics.Pct(r.ASLinkIncreasePct), "18%")
	t.AddRow("overlap with traceroute links", r.TracerouteOverlap, "3,927")
	return t
}

// Figure7Result reproduces the customer-degree analysis of the inferred
// link endpoints.
type Figure7Result struct {
	SmallestCDF, LargestCDF *metrics.Series

	StubStubFrac     float64 // both endpoints stubs (paper 12.4%)
	InvolvesStubFrac float64 // at least one stub (55.6%)
	SmallDegreeFrac  float64 // smaller endpoint ≤10 customers (58.1%)
	Links            int
}

// Figure7 computes endpoint customer degrees using the relationship
// inference (as the paper uses [32]).
func (c *Context) Figure7() *Figure7Result {
	rels := c.Run.Passive.Rels
	res := &Figure7Result{Links: c.Run.Result.TotalLinks()}
	var smallest, largest []int
	stubStub, involves, smallDeg := 0, 0, 0
	//mlplint:ordered NewDistributionInts sorts both samples; the integer counters are commutative
	for link := range c.Run.Result.Links {
		da, db := rels.CustomerDegree(link.A), rels.CustomerDegree(link.B)
		lo, hi := da, db
		if lo > hi {
			lo, hi = hi, lo
		}
		smallest = append(smallest, lo)
		largest = append(largest, hi)
		if hi == 0 {
			stubStub++
		}
		if lo == 0 {
			involves++
		}
		if lo <= 10 {
			smallDeg++
		}
	}
	res.SmallestCDF = metrics.NewDistributionInts(smallest).CDF("smallest customer degree")
	res.LargestCDF = metrics.NewDistributionInts(largest).CDF("largest customer degree")
	res.StubStubFrac = metrics.Ratio(stubStub, res.Links)
	res.InvolvesStubFrac = metrics.Ratio(involves, res.Links)
	res.SmallDegreeFrac = metrics.Ratio(smallDeg, res.Links)
	return res
}

// Render formats Figure 7's summary statistics.
func (r *Figure7Result) Render() *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 7: customer degrees on inferred links",
		Columns: []string{"metric", "value", "paper"},
	}
	t.AddRow("links between two stubs", metrics.Pct(r.StubStubFrac), "12.4%")
	t.AddRow("links involving a stub", metrics.Pct(r.InvolvesStubFrac), "55.6%")
	t.AddRow("links w/ endpoint <=10 customers", metrics.Pct(r.SmallDegreeFrac), "58.1%")
	t.AddRow("links analysed", r.Links, "206,667")
	return t
}

// Figure8Result reproduces the per-LG validation comparison.
type Figure8Result struct {
	Rows []struct {
		Host      bgp.ASN
		AllPaths  bool
		Tested    int
		Confirmed int
		Fraction  float64
	}
	MeanAllPaths, MeanBestPath float64
}

// Figure8 groups validation outcomes by LG display mode.
func (c *Context) Figure8() (*Figure8Result, error) {
	val, err := c.Validation()
	if err != nil {
		return nil, err
	}
	res := &Figure8Result{}
	var allSum, bestSum float64
	var allN, bestN int
	for _, o := range val.PerLG {
		if o.Tested == 0 {
			continue
		}
		res.Rows = append(res.Rows, struct {
			Host      bgp.ASN
			AllPaths  bool
			Tested    int
			Confirmed int
			Fraction  float64
		}{o.Host, o.AllPaths, o.Tested, o.Confirmed, o.Fraction()})
		if o.AllPaths {
			allSum += o.Fraction()
			allN++
		} else {
			bestSum += o.Fraction()
			bestN++
		}
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Fraction > res.Rows[j].Fraction })
	if allN > 0 {
		res.MeanAllPaths = allSum / float64(allN)
	}
	if bestN > 0 {
		res.MeanBestPath = bestSum / float64(bestN)
	}
	return res, nil
}

// Render formats Figure 8.
func (r *Figure8Result) Render() *metrics.Table {
	t := &metrics.Table{
		Title:   "Figure 8: validated fraction per looking glass",
		Columns: []string{"LG (AS)", "mode", "tested", "confirmed", "fraction"},
	}
	for _, row := range r.Rows {
		mode := "best-path"
		if row.AllPaths {
			mode = "all-paths"
		}
		t.AddRow(row.Host, mode, row.Tested, row.Confirmed, fmt.Sprintf("%.3f", row.Fraction))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"mean all-paths %.3f vs best-path %.3f (best-path LGs hide less-preferred routes)",
		r.MeanAllPaths, r.MeanBestPath))
	return t
}
