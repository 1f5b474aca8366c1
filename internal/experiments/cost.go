package experiments

import (
	"context"
	"fmt"

	"mlpeering/internal/core"
	"mlpeering/internal/metrics"
	"mlpeering/internal/relation"
)

// QueryCostResult reproduces the §4.3 accounting: measured cost of the
// optimized survey vs the eq-1 variant (no passive exclusion), the
// unsorted variant (no multiplicity ordering) and the naive full scan.
type QueryCostResult struct {
	Optimized   int // equation (2): sampling + sorting + passive exclusion
	NoPassive   int // equation (1): sampling + sorting only
	NoSorting   int // sampling + passive exclusion, arbitrary order
	Naive       int // 1 + |A_RS| + sum |P_a| (no sampling at all)
	PerIXP      map[string]int
	NaiveFactor float64 // Naive / Optimized (paper: ~18x)
}

// QueryCost re-runs the active survey under the ablated configurations
// and compares costs.
func (c *Context) QueryCost() (*QueryCostResult, error) {
	ctx := context.Background()
	res := &QueryCostResult{
		Optimized: c.Run.Active.TotalQueries(),
		PerIXP:    c.Run.Active.QueriesPerIXP,
	}

	hints := c.Run.Passive.PrefixesByOrigin()
	rerun := func(cfg core.ActiveConfig) (int, error) {
		r, err := core.RunActive(ctx, c.Run.Dict, c.World.LGEndpoints(0), c.Run.Passive.Obs, hints, cfg)
		if err != nil {
			return 0, err
		}
		return r.TotalQueries(), nil
	}

	cfg := core.DefaultActiveConfig()
	cfg.SkipPassiveCovered = false
	n, err := rerun(cfg)
	if err != nil {
		return nil, err
	}
	res.NoPassive = n

	cfg = core.DefaultActiveConfig()
	cfg.SortByMultiplicity = false
	n, err = rerun(cfg)
	if err != nil {
		return nil, err
	}
	res.NoSorting = n

	// Naive cost from the route-server tables: one summary, one
	// neighbor query per member, one prefix query per advertisement.
	for name, rib := range c.World.RSRIBs {
		if info := c.World.Topo.IXPByName(name); info == nil || !info.HasLG {
			continue
		}
		members := rib.Members()
		naive := 1 + len(members)
		for _, es := range rib.Entries {
			naive += len(es)
		}
		res.Naive += naive
	}
	if res.Optimized > 0 {
		res.NaiveFactor = float64(res.Naive) / float64(res.Optimized)
	}
	return res, nil
}

// Render formats the query-cost comparison.
func (r *QueryCostResult) Render() *metrics.Table {
	t := &metrics.Table{
		Title:   "Query cost (§4.3): LG queries issued",
		Columns: []string{"strategy", "queries"},
	}
	t.AddRow("optimized (eq. 2: sampling+sorting+passive)", r.Optimized)
	t.AddRow("no passive exclusion (eq. 1)", r.NoPassive)
	t.AddRow("no multiplicity sorting", r.NoSorting)
	t.AddRow("naive full scan", r.Naive)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"naive/optimized = %.1fx (paper: ~18x; DE-CIX 8,400 -> 5,922 with passive exclusion)",
		r.NaiveFactor))
	return t
}

// ReciprocityResult reproduces the §4.4 validation over IRR filters.
type ReciprocityResult struct {
	IXP            string
	MembersChecked int
	Violations     int // import blocks an AS export allows (paper: 0)
	MorePermissive int // import strictly wider than export (~half)
}

// Reciprocity extracts IRR-registered import/export filters of the
// named IXP's members (AMS-IX in the paper) and checks the assumption.
func (c *Context) Reciprocity(ixpName string) (*ReciprocityResult, error) {
	if ixpName == "" {
		ixpName = "AMS-IX"
	}
	info := c.World.Topo.IXPByName(ixpName)
	if info == nil {
		return nil, fmt.Errorf("experiments: unknown IXP %q", ixpName)
	}
	res := &ReciprocityResult{IXP: ixpName}
	members := info.SortedRSMembers()
	for _, m := range members {
		imp, exp, err := c.World.IRR.RSFilters(m, info.Scheme.RSASN)
		if err != nil {
			return nil, err
		}
		if imp == nil || exp == nil {
			continue
		}
		res.MembersChecked++
		wider := false
		for _, other := range members {
			if other == m {
				continue
			}
			ea, ia := exp.Filter.Allows(other), imp.Filter.Allows(other)
			if ea && !ia {
				res.Violations++
			}
			if ia && !ea {
				wider = true
			}
		}
		if wider {
			res.MorePermissive++
		}
	}
	return res, nil
}

// Render formats the reciprocity check.
func (r *ReciprocityResult) Render() *metrics.Table {
	t := &metrics.Table{
		Title:   fmt.Sprintf("Reciprocity validation (§4.4) at %s", r.IXP),
		Columns: []string{"metric", "value", "paper"},
	}
	t.AddRow("members with IRR filters", r.MembersChecked, "230")
	t.AddRow("import-blocks-exported violations", r.Violations, "0")
	t.AddRow("imports strictly more permissive", r.MorePermissive, "~half")
	return t
}

// HybridResult reproduces §5.6: inferred RS links that the relationship
// algorithm labels provider-customer.
type HybridResult struct {
	VisibleRSLinks int // inferred links also visible in public BGP
	LabeledP2C     int // of those, labeled c2p/p2c by inference
	Fraction       float64
}

// Hybrid counts candidate hybrid relationships.
func (c *Context) Hybrid() *HybridResult {
	res := &HybridResult{}
	rels := c.Run.Passive.Rels
	for link := range c.Run.Result.Links {
		if !c.Run.Passive.Links[link] {
			continue
		}
		res.VisibleRSLinks++
		switch rels.Relationship(link.A, link.B) {
		case relation.RelC2P, relation.RelP2C:
			res.LabeledP2C++
		}
	}
	res.Fraction = metrics.Ratio(res.LabeledP2C, res.VisibleRSLinks)
	return res
}

// Render formats the hybrid-relationship count.
func (r *HybridResult) Render() *metrics.Table {
	t := &metrics.Table{
		Title:   "Hybrid relationships (§5.6)",
		Columns: []string{"metric", "value", "paper"},
	}
	t.AddRow("RS links visible in public BGP", r.VisibleRSLinks, "-")
	t.AddRow("of those labeled p2c by [32]-style inference", r.LabeledP2C, "1,230")
	t.AddRow("fraction", metrics.Pct(r.Fraction), "-")
	return t
}

// SurveyIXP is one entry of the §5.7 global IXP survey.
type SurveyIXP struct {
	Name    string
	Region  string // "eu", "na", "apac", "latam", "africa"
	Members int
	FlatFee bool
	HasRS   bool
}

// globalSurvey returns the 61-IXP survey the estimate runs on: the
// paper's 13 measured IXPs plus a synthetic completion matching the
// paper's counts (37 EU, 14 NA and 10 other IXPs with ≥50 members).
func globalSurvey() []SurveyIXP {
	out := []SurveyIXP{
		{"AMS-IX", "eu", 574, true, true}, {"DE-CIX", "eu", 483, true, true},
		{"LINX", "eu", 457, true, true}, {"MSK-IX", "eu", 374, false, true},
		{"PLIX", "eu", 222, true, true}, {"France-IX", "eu", 193, true, true},
		{"LONAP", "eu", 120, true, true}, {"ECIX", "eu", 102, true, true},
		{"SPB-IX", "eu", 89, false, true}, {"DTEL-IX", "eu", 74, true, true},
		{"TOP-IX", "eu", 71, true, true}, {"STHIX", "eu", 69, true, true},
		{"BIX.BG", "eu", 53, true, true},
	}
	// Remaining European IXPs with at least 50 members (sizes follow a
	// plausible tail; 8 of 24 have no route server).
	euSizes := []int{310, 280, 240, 210, 190, 175, 160, 150, 140, 130, 120, 115,
		105, 100, 95, 90, 85, 80, 75, 70, 65, 60, 55, 50}
	for i, n := range euSizes {
		out = append(out, SurveyIXP{
			Name:    fmt.Sprintf("EU-%02d", i+1),
			Region:  "eu",
			Members: n,
			FlatFee: i%3 != 0,
			HasRS:   i%3 != 2,
		})
	}
	naSizes := []int{420, 360, 300, 260, 220, 180, 150, 130, 110, 95, 80, 65, 55, 50}
	for i, n := range naSizes {
		out = append(out, SurveyIXP{
			Name:    fmt.Sprintf("NA-%02d", i+1),
			Region:  "na",
			Members: n,
			FlatFee: false,
			HasRS:   i%2 == 0,
		})
	}
	apSizes := []int{260, 210, 170, 140, 110, 90, 70, 55}
	for i, n := range apSizes {
		out = append(out, SurveyIXP{
			Name:    fmt.Sprintf("AP-%02d", i+1),
			Region:  "apac",
			Members: n,
			FlatFee: i%2 == 0,
			HasRS:   i%3 != 2,
		})
	}
	out = append(out,
		SurveyIXP{"LATAM-01", "latam", 140, true, true},
		SurveyIXP{"AFR-01", "africa", 90, true, true},
	)
	return out
}

// EstimateResult reproduces §5.7.
type EstimateResult struct {
	EUIXPs, GlobalIXPs     int
	EULinks, GlobalLinks   int
	EUUnique, GlobalUnique int
	ConservativeGlobal     int
	OverlapDiscount        float64 // measured multi-IXP overlap fraction
}

// densityPrior applies the paper's priors: flat-fee+RS 0.70,
// usage-based+RS 0.60, no RS 0.50, North America 0.40.
func densityPrior(x SurveyIXP) float64 {
	if x.Region == "na" {
		return 0.40
	}
	switch {
	case !x.HasRS:
		return 0.50
	case x.FlatFee:
		return 0.70
	default:
		return 0.60
	}
}

// GlobalEstimate computes the §5.7 extrapolation, deriving the overlap
// discount from this run's measured multi-IXP link overlap.
func (c *Context) GlobalEstimate() *EstimateResult {
	res := &EstimateResult{}
	sum := c.Run.Result.SumPerIXPLinks()
	if sum > 0 {
		res.OverlapDiscount = float64(c.Run.Result.TotalLinks()) / float64(sum)
	} else {
		res.OverlapDiscount = 1
	}
	for _, x := range globalSurvey() {
		pairs := x.Members * (x.Members - 1) / 2
		links := int(densityPrior(x) * float64(pairs))
		consLinks := int(min(densityPrior(x), 0.60) * float64(pairs))
		res.GlobalIXPs++
		res.GlobalLinks += links
		res.ConservativeGlobal += consLinks
		if x.Region == "eu" {
			res.EUIXPs++
			res.EULinks += links
		}
	}
	res.EUUnique = int(float64(res.EULinks) * res.OverlapDiscount)
	res.GlobalUnique = int(float64(res.GlobalLinks) * res.OverlapDiscount)
	return res
}

// Render formats the estimate.
func (r *EstimateResult) Render() *metrics.Table {
	t := &metrics.Table{
		Title:   "Global IXP peering estimate (§5.7)",
		Columns: []string{"metric", "value", "paper"},
	}
	t.AddRow("European IXPs surveyed", r.EUIXPs, "37")
	t.AddRow("European IXP peerings", r.EULinks, "558,291")
	t.AddRow("European unique AS pairs", r.EUUnique, "399,732")
	t.AddRow("global IXPs surveyed", r.GlobalIXPs, "61")
	t.AddRow("global IXP peerings", r.GlobalLinks, "686,104")
	t.AddRow("global unique AS pairs", r.GlobalUnique, "510,870")
	t.AddRow("conservative global (density <=0.6)", r.ConservativeGlobal, "596,011")
	t.Notes = append(t.Notes, fmt.Sprintf("overlap discount measured from this run: %.2f", r.OverlapDiscount))
	return t
}
