package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/peeringdb"
	"mlpeering/internal/topology"
)

var (
	ctxOnce sync.Once
	shared  *Context
	ctxErr  error
)

func fixture(t *testing.T) *Context {
	t.Helper()
	ctxOnce.Do(func() {
		shared, ctxErr = NewContext(topology.TestConfig())
	})
	if ctxErr != nil {
		t.Fatal(ctxErr)
	}
	return shared
}

func TestTable2Shape(t *testing.T) {
	c := fixture(t)
	r := c.Table2()
	if len(r.Rows) != 13 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.TotalLinks == 0 || r.SumLinks < r.TotalLinks || r.MultiIXP == 0 {
		t.Fatalf("totals: %+v", r)
	}
	if r.SumLinks-r.TotalLinks < r.MultiIXP {
		t.Fatalf("overlap accounting: sum=%d total=%d multi=%d", r.SumLinks, r.TotalLinks, r.MultiIXP)
	}
	for _, row := range r.Rows {
		if row.Pasv+row.Active > row.RS+2 {
			t.Errorf("%s: coverage %d+%d exceeds members %d", row.IXP, row.Pasv, row.Active, row.RS)
		}
		if row.IXP == "LINX" && !row.Partial {
			t.Error("LINX must be marked partial")
		}
	}
	out := r.Render().String()
	if !strings.Contains(out, "DE-CIX") || !strings.Contains(out, "*") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestTable3Shape(t *testing.T) {
	c := fixture(t)
	r, err := c.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if r.Tested == 0 {
		t.Fatal("nothing tested")
	}
	if r.ConfirmedFrac < 0.9 {
		t.Fatalf("confirmed fraction %.3f", r.ConfirmedFrac)
	}
	// At least half the IXPs have a validated row.
	withTests := 0
	for _, row := range r.Rows {
		if row.Tested > 0 {
			withTests++
			// Per-IXP rates are only meaningful with enough samples.
			if row.Tested >= 10 && row.ConfirmedFrac < 0.7 {
				t.Errorf("%s: confirmed %.3f of %d", row.IXP, row.ConfirmedFrac, row.Tested)
			}
		}
	}
	if withTests < len(r.Rows)/2 {
		t.Fatalf("only %d of %d IXPs have validated links", withTests, len(r.Rows))
	}
}

func TestFigure1Scaling(t *testing.T) {
	c := fixture(t)
	r := c.Figure1()
	for _, row := range r.Rows {
		// Bilateral scaling overtakes c*n as soon as n > 2c+1.
		if row.Members > 2*r.RouteServers+1 && row.Bilateral <= row.Multilateral {
			t.Errorf("%s: bilateral %d should exceed multilateral %d", row.IXP, row.Bilateral, row.Multilateral)
		}
	}
}

func TestFigure5MultiMemberPrefixes(t *testing.T) {
	c := fixture(t)
	r := c.Figure5("")
	if r.Prefixes == 0 {
		t.Fatal("no prefixes")
	}
	// The paper found 48.4% multi-member at DE-CIX; the shape target is
	// a substantial fraction.
	if r.MultiMemberFrac < 0.08 {
		t.Fatalf("multi-member fraction %.3f too low", r.MultiMemberFrac)
	}
	if len(r.CCDF.X) == 0 || r.CCDF.Y[0] != 1.0 {
		t.Fatalf("CCDF malformed: %+v", r.CCDF)
	}
}

func TestFigure6Visibility(t *testing.T) {
	c := fixture(t)
	r := c.Figure6()
	if r.TotalMLPLinks == 0 || r.PublicPeerLinks == 0 {
		t.Fatalf("empty datasets: %+v", r)
	}
	// Headline shapes: most links invisible; MLP set much larger than
	// the public p2p view; traceroute overlap tiny.
	if r.InvisibleFrac < 0.5 {
		t.Fatalf("invisible fraction %.3f", r.InvisibleFrac)
	}
	if r.MorePeeringsFrac < 0.5 {
		t.Fatalf("more-peerings factor %.3f", r.MorePeeringsFrac)
	}
	if r.TracerouteOverlap > r.TotalMLPLinks/5 {
		t.Fatalf("traceroute overlap %d too high vs %d", r.TracerouteOverlap, r.TotalMLPLinks)
	}
	if len(r.MLP.X) == 0 || len(r.MLP.X) != len(r.Passive.X) {
		t.Fatal("ranked series malformed")
	}
	// Ranked MLP series is non-increasing.
	for i := 1; i < len(r.MLP.Y); i++ {
		if r.MLP.Y[i] > r.MLP.Y[i-1] {
			t.Fatal("MLP series not ranked")
		}
	}
}

func TestFigure7Degrees(t *testing.T) {
	c := fixture(t)
	r := c.Figure7()
	if r.Links == 0 {
		t.Fatal("no links")
	}
	// Shape: a majority of links involve the edge of the hierarchy.
	if r.InvolvesStubFrac < 0.25 {
		t.Fatalf("involves-stub %.3f too low", r.InvolvesStubFrac)
	}
	if r.StubStubFrac > r.InvolvesStubFrac {
		t.Fatal("stub-stub exceeds involves-stub")
	}
	if r.SmallDegreeFrac < r.InvolvesStubFrac {
		t.Fatal("≤10-customers must include the stubs")
	}
}

func TestFigure8Modes(t *testing.T) {
	c := fixture(t)
	r, err := c.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no LG outcomes")
	}
	if r.MeanAllPaths == 0 {
		t.Fatal("no all-paths LGs")
	}
	if r.MeanAllPaths < 0.6 || r.MeanAllPaths > 1 {
		t.Fatalf("all-paths mean %.3f outside sane band", r.MeanAllPaths)
	}
	if r.MeanBestPath < 0 || r.MeanBestPath > 1 {
		t.Fatalf("best-path mean %.3f outside sane band", r.MeanBestPath)
	}
}

func TestFigure9Participation(t *testing.T) {
	c := fixture(t)
	r := c.Figure9()
	open := r.Participation[peeringdb.PolicyOpen]
	if open.Total == 0 {
		t.Fatal("no open members")
	}
	openFrac := float64(open.OnRS) / float64(open.Total)
	if openFrac < 0.7 {
		t.Fatalf("open RS participation %.3f", openFrac)
	}
	restr := r.Participation[peeringdb.PolicyRestrictive]
	if restr.Total > 0 {
		restrFrac := float64(restr.OnRS) / float64(restr.Total)
		if restrFrac >= openFrac {
			t.Fatalf("restrictive participation %.3f not below open %.3f", restrFrac, openFrac)
		}
	}
}

func TestFigure10Matrix(t *testing.T) {
	c := fixture(t)
	r := c.Figure10()
	if r.ASes == 0 {
		t.Fatal("no members")
	}
	var sum float64
	for _, f := range r.Matrix {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("matrix fractions sum to %f", sum)
	}
	// Single-IXP-with-RS should be the dominant cell (paper 55.8%).
	if r.SingleIXPOnRS < 0.3 {
		t.Fatalf("single-IXP+RS cell %.3f", r.SingleIXPOnRS)
	}
	if r.NoRS <= 0 || r.NoRS > 0.5 {
		t.Fatalf("no-RS fraction %.3f", r.NoRS)
	}
}

func TestFigure11Bimodality(t *testing.T) {
	c := fixture(t)
	r := c.Figure11()
	open, ok := r.Means[peeringdb.PolicyOpen]
	if !ok {
		t.Fatal("no open members measured")
	}
	if open < 0.85 {
		t.Fatalf("open mean %.3f (paper 96.7%%)", open)
	}
	if restr, ok := r.Means[peeringdb.PolicyRestrictive]; ok && restr > open {
		t.Fatalf("restrictive mean %.3f above open %.3f", restr, open)
	}
	if r.BimodalFrac < 0.8 {
		t.Fatalf("bimodal fraction %.3f (nearly all members are at the extremes)", r.BimodalFrac)
	}
}

func TestFigure12Density(t *testing.T) {
	c := fixture(t)
	r := c.Figure12()
	if len(r.Rows) == 0 {
		t.Fatal("no density rows")
	}
	for _, row := range r.Rows {
		if row.Mean < 0.5 || row.Mean > 1.0 {
			t.Errorf("%s: density %.3f outside plausible band", row.IXP, row.Mean)
		}
	}
}

func TestFigure13Repellers(t *testing.T) {
	c := fixture(t)
	r := c.Figure13()
	if r.TotalExcludes == 0 || r.BlockedASes == 0 {
		t.Fatalf("no excludes: %+v", r)
	}
	if r.ConeFrac <= 0 {
		t.Fatal("no cone-targeted excludes")
	}
	if r.DirectCustomerFrac > r.ConeFrac {
		t.Fatal("direct-customer excludes exceed cone excludes")
	}
	if r.TopRepeller == 0 || r.TopRepellerBlocks == 0 {
		t.Fatal("no top repeller")
	}
	// The Google-analog: the top repeller should be a content network.
	if as := c.World.Topo.ASes[r.TopRepeller]; as != nil && !as.Content {
		t.Logf("note: top repeller %s is not a content AS (allowed, but unusual)", r.TopRepeller)
	}
}

func TestTopRepellerTieGoesToLowestASN(t *testing.T) {
	counts := map[bgp.ASN]int{1331: 6, 1191: 6, 64: 5, 70000: 6, 9: 1}
	for i := 0; i < 50; i++ { // map order differs between ranges
		if top, blocks := topRepeller(counts); top != 1191 || blocks != 6 {
			t.Fatalf("topRepeller = AS%d x%d, want AS1191 x6", top, blocks)
		}
	}
	if top, blocks := topRepeller(nil); top != 0 || blocks != 0 {
		t.Fatalf("topRepeller(nil) = AS%d x%d", top, blocks)
	}
}

// TestFigure13StableAcrossRuns repeats Figure 13 on the Scale-0.12
// world, where the top block count is tied between two ASes: every run
// names the same AS, the lowest tied one, with its own blocker count.
func TestFigure13StableAcrossRuns(t *testing.T) {
	cfg := topology.DefaultConfig()
	cfg.Scale = 0.12
	c, err := NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first := c.Figure13()
	tied := 0
	for as, n := range first.BlockCounts {
		if n == first.TopRepellerBlocks {
			tied++
			if as < first.TopRepeller {
				t.Fatalf("AS%d ties the top repeller AS%d at %d blocks and is lower", as, first.TopRepeller, n)
			}
		}
	}
	if tied < 2 {
		t.Logf("no tie at the top in this world (%d AS at %d blocks): the repeat check is vacuous", tied, first.TopRepellerBlocks)
	}
	for i := 1; i < 10; i++ {
		r := c.Figure13()
		if r.TopRepeller != first.TopRepeller || r.TopRepellerBlocks != first.TopRepellerBlocks ||
			r.TopRepellerSources != first.TopRepellerSources {
			t.Fatalf("run %d: top repeller AS%d x%d by %d, first run AS%d x%d by %d", i,
				r.TopRepeller, r.TopRepellerBlocks, r.TopRepellerSources,
				first.TopRepeller, first.TopRepellerBlocks, first.TopRepellerSources)
		}
	}
}

func TestQueryCostOrdering(t *testing.T) {
	c := fixture(t)
	r, err := c.QueryCost()
	if err != nil {
		t.Fatal(err)
	}
	if r.Optimized == 0 || r.Naive == 0 {
		t.Fatalf("costs: %+v", r)
	}
	// Equation 2 must not cost more than equation 1.
	if r.Optimized > r.NoPassive {
		t.Fatalf("passive exclusion increased cost: %d > %d", r.Optimized, r.NoPassive)
	}
	// Sampling+sorting must beat the naive full scan clearly.
	if r.NaiveFactor < 1.5 {
		t.Fatalf("naive/optimized only %.2fx", r.NaiveFactor)
	}
	// Multiplicity sorting helps (or at least does not hurt).
	if r.Optimized > r.NoSorting {
		t.Fatalf("sorting increased cost: %d > %d", r.Optimized, r.NoSorting)
	}
}

func TestReciprocityHolds(t *testing.T) {
	c := fixture(t)
	r, err := c.Reciprocity("")
	if err != nil {
		t.Fatal(err)
	}
	if r.MembersChecked == 0 {
		t.Fatal("no members checked")
	}
	if r.Violations != 0 {
		t.Fatalf("%d reciprocity violations", r.Violations)
	}
	if r.MorePermissive == 0 {
		t.Fatal("no strictly-more-permissive imports; generator should create ~half")
	}
	if _, err := c.Reciprocity("NOT-AN-IXP"); err == nil {
		t.Fatal("unknown IXP accepted")
	}
}

func TestHybridCount(t *testing.T) {
	c := fixture(t)
	r := c.Hybrid()
	if r.VisibleRSLinks == 0 {
		t.Fatal("no visible RS links")
	}
	if r.LabeledP2C == 0 {
		t.Fatal("expected some RS links mislabeled p2c (§5.6)")
	}
}

func TestGlobalEstimateShape(t *testing.T) {
	c := fixture(t)
	r := c.GlobalEstimate()
	if r.EUIXPs != 37 || r.GlobalIXPs != 61 {
		t.Fatalf("survey sizes: %d EU, %d global", r.EUIXPs, r.GlobalIXPs)
	}
	// Paper: 558,291 EU / 686,104 global; shape tolerance ±35%.
	if r.EULinks < 360_000 || r.EULinks > 760_000 {
		t.Fatalf("EU estimate %d", r.EULinks)
	}
	if r.GlobalLinks < r.EULinks || r.GlobalLinks > 950_000 {
		t.Fatalf("global estimate %d", r.GlobalLinks)
	}
	if r.ConservativeGlobal > r.GlobalLinks {
		t.Fatal("conservative estimate exceeds main estimate")
	}
	if r.EUUnique >= r.EULinks || r.GlobalUnique >= r.GlobalLinks {
		t.Fatal("unique estimates must shrink via overlap")
	}
}

func TestRunAllRenders(t *testing.T) {
	c := fixture(t)
	var buf bytes.Buffer
	if err := c.RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 2", "Table 3", "Figure 1", "Figure 5", "Figure 6", "Figure 7",
		"Figure 8", "Figure 9", "Figure 10", "Figure 11", "Figure 12",
		"Figure 13", "Query cost", "Reciprocity", "Hybrid", "Global IXP peering estimate",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in RunAll output", want)
		}
	}
}
