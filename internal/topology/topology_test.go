package topology

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
	"mlpeering/internal/peeringdb"
)

func testTopo(t *testing.T) *Topology {
	t.Helper()
	topo, err := Generate(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Order) != len(b.Order) {
		t.Fatalf("AS counts differ: %d vs %d", len(a.Order), len(b.Order))
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatalf("order differs at %d", i)
		}
	}
	for _, x := range a.IXPs {
		y := b.IXPByName(x.Name)
		if y == nil || len(y.RSMembers) != len(x.RSMembers) {
			t.Fatalf("IXP %s differs", x.Name)
		}
		for i := range x.RSMembers {
			if x.RSMembers[i] != y.RSMembers[i] {
				t.Fatalf("IXP %s member %d differs", x.Name, i)
			}
		}
	}
	// A different seed changes the world.
	cfg := TestConfig()
	cfg.Seed++
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Order) == len(c.Order)
	if same {
		for i := range a.Order {
			if a.Order[i] != c.Order[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical AS pools")
	}
}

func TestGenerateStructure(t *testing.T) {
	topo := testTopo(t)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	st := topo.Stats()
	if st.Tier1s != numTier1 {
		t.Fatalf("tier1s = %d", st.Tier1s)
	}
	if st.Stubs == 0 || st.Transits == 0 {
		t.Fatalf("empty tiers: %+v", st)
	}
	if st.IXPs != 13 {
		t.Fatalf("IXPs = %d", st.IXPs)
	}
	if st.Prefixes == 0 {
		t.Fatal("no prefixes")
	}

	// Every non-tier-1 AS must have at least one provider (reachability).
	for _, asn := range topo.Order {
		as := topo.ASes[asn]
		if as.Tier != Tier1 && len(as.Providers) == 0 {
			t.Fatalf("AS%s (tier %d) has no providers", asn, as.Tier)
		}
		if as.Tier == Tier1 && len(as.Providers) != 0 {
			t.Fatalf("tier-1 AS%s has providers", asn)
		}
	}

	// Tier-1 clique is fully meshed.
	var t1 []bgp.ASN
	for _, asn := range topo.Order {
		if topo.ASes[asn].Tier == Tier1 {
			t1 = append(t1, asn)
		}
	}
	for i, a := range t1 {
		for _, b := range t1[i+1:] {
			if !topo.ASes[a].HasPeer(b) {
				t.Fatalf("tier-1s %s and %s not peered", a, b)
			}
		}
	}
}

func TestGenerateIXPSizes(t *testing.T) {
	cfg := TestConfig()
	topo, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, prof := range PaperIXPProfiles() {
		info := topo.IXPByName(prof.Name)
		if info == nil {
			t.Fatalf("missing IXP %s", prof.Name)
		}
		wantM, wantRS := cfg.scaled(prof.Members), cfg.scaled(prof.RSMembers)
		if len(info.Members) != wantM {
			t.Errorf("%s members = %d, want %d", prof.Name, len(info.Members), wantM)
		}
		if len(info.RSMembers) != wantRS {
			t.Errorf("%s RS members = %d, want %d", prof.Name, len(info.RSMembers), wantRS)
		}
		if info.Scheme.RSASN != prof.RSASN {
			t.Errorf("%s RS ASN = %v", prof.Name, info.Scheme.RSASN)
		}
	}
}

func TestFiltersRespectReciprocityInvariant(t *testing.T) {
	topo := testTopo(t)
	// §4.4: no import filter blocks an AS the export filter allows.
	for _, info := range topo.IXPs {
		for _, m := range info.RSMembers {
			ef, ok1 := topo.ExportFilter(info.Name, m)
			imf, ok2 := topo.ImportFilter(info.Name, m)
			if !ok1 || !ok2 {
				t.Fatalf("%s member %s missing filters", info.Name, m)
			}
			for _, other := range info.RSMembers {
				if other == m {
					continue
				}
				if ef.Allows(other) && !imf.Allows(other) {
					t.Fatalf("%s member %s: import more restrictive than export for %s",
						info.Name, m, other)
				}
			}
		}
	}
}

func TestGroundTruthLinks(t *testing.T) {
	topo := testTopo(t)
	for _, info := range topo.IXPs {
		all := topo.GroundTruthMLPLinks(info.Name)
		recip := topo.GroundTruthReciprocalLinks(info.Name)
		if len(recip) > len(all) {
			t.Fatalf("%s: reciprocal %d > all %d", info.Name, len(recip), len(all))
		}
		for k := range recip {
			if !all[k] {
				t.Fatalf("%s: reciprocal link %v missing from full set", info.Name, k)
			}
		}
		n := len(info.RSMembers)
		max := n * (n - 1) / 2
		if len(all) > max {
			t.Fatalf("%s: %d links exceed %d possible", info.Name, len(all), max)
		}
		// Density should be high but not complete (Fig. 12: 0.79-0.95).
		if n > 10 {
			density := float64(len(all)) / float64(max)
			if density < 0.5 || density > 0.999 {
				t.Errorf("%s: implausible MLP density %.3f", info.Name, density)
			}
		}
	}
}

func TestCustomerCone(t *testing.T) {
	topo := testTopo(t)
	// Find a transit AS with customers.
	for _, asn := range topo.Order {
		as := topo.ASes[asn]
		if as.Tier == Tier2 && len(as.Customers) > 0 {
			cone := topo.CustomerCone(asn)
			if !cone[asn] {
				t.Fatal("cone must include self")
			}
			for _, c := range as.Customers {
				if !cone[c] {
					t.Fatalf("direct customer %s missing from cone of %s", c, asn)
				}
			}
			return
		}
	}
	t.Fatal("no transit AS with customers found")
}

func TestRelationshipOf(t *testing.T) {
	topo := testTopo(t)
	for _, asn := range topo.Order {
		as := topo.ASes[asn]
		for _, p := range as.Providers {
			if rel, ok := topo.RelationshipOf(asn, p); !ok || rel != RelC2P {
				t.Fatalf("RelationshipOf(%s,%s) = %v,%v", asn, p, rel, ok)
			}
			if rel, ok := topo.RelationshipOf(p, asn); !ok || rel != RelP2C {
				t.Fatalf("reverse = %v,%v", rel, ok)
			}
		}
		for _, p := range as.Peers {
			if rel, ok := topo.RelationshipOf(asn, p); !ok || rel != RelP2P {
				t.Fatalf("peer rel = %v,%v", rel, ok)
			}
		}
		break
	}
	if _, ok := topo.RelationshipOf(1, 2); ok {
		t.Fatal("unknown ASes must not be related")
	}
}

func TestFeedersAndLGs(t *testing.T) {
	cfg := TestConfig()
	topo, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Feeders) == 0 {
		t.Fatal("no feeders")
	}
	full, custOnly := 0, 0
	for _, f := range topo.Feeders {
		if topo.ASes[f.ASN] == nil {
			t.Fatalf("feeder %s not in topology", f.ASN)
		}
		if f.Kind == FeedFull {
			full++
		} else {
			custOnly++
		}
	}
	if full == 0 || custOnly == 0 {
		t.Fatalf("feeder kinds: full=%d custOnly=%d", full, custOnly)
	}

	if len(topo.ValidationLGs) != cfg.ValidationLGs {
		t.Fatalf("validation LGs = %d, want %d", len(topo.ValidationLGs), cfg.ValidationLGs)
	}
	allPaths := 0
	for _, lg := range topo.ValidationLGs {
		if lg.AllPaths {
			allPaths++
		}
	}
	if allPaths == 0 || allPaths == len(topo.ValidationLGs) {
		t.Fatalf("LG display modes not mixed: %d/%d all-paths", allPaths, len(topo.ValidationLGs))
	}

	// IXPs without an own LG must have member LGs to stay measurable.
	for _, prof := range PaperIXPProfiles() {
		if !prof.HasLG && prof.MemberLGs > 0 {
			if len(topo.MemberLGs[prof.Name]) == 0 {
				t.Errorf("%s: no member LGs despite profile", prof.Name)
			}
		}
	}
}

func TestPolicyDistribution(t *testing.T) {
	topo := testTopo(t)
	counts := map[peeringdb.Policy]int{}
	total := 0
	memberSet := map[bgp.ASN]bool{}
	for _, info := range topo.IXPs {
		for _, m := range info.Members {
			memberSet[m] = true
		}
	}
	for m := range memberSet {
		as := topo.ASes[m]
		if !as.Registered {
			continue
		}
		counts[as.Policy]++
		total++
	}
	if total == 0 {
		t.Fatal("no registered members")
	}
	openFrac := float64(counts[peeringdb.PolicyOpen]) / float64(total)
	if openFrac < 0.5 || openFrac > 0.9 {
		t.Errorf("open fraction among registered members = %.2f, want ~0.72", openFrac)
	}
}

func TestPrefixOwnership(t *testing.T) {
	topo := testTopo(t)
	owners := topo.PrefixOwners()
	if len(owners) == 0 {
		t.Fatal("no prefixes")
	}
	seen := map[bgp.Prefix]bool{}
	for _, asn := range topo.Order {
		for _, p := range topo.ASes[asn].Prefixes {
			if seen[p] {
				t.Fatalf("prefix %s originated twice", p)
			}
			seen[p] = true
			if owners[p] != asn {
				t.Fatalf("owner mismatch for %s", p)
			}
			if _, ok := topo.PrefixRegions[p]; !ok {
				t.Fatalf("prefix %s has no region", p)
			}
		}
	}
}

func TestBilateralIXPLinksAreMirrored(t *testing.T) {
	topo := testTopo(t)
	if len(topo.BilateralIXP) == 0 {
		t.Fatal("no bilateral IXP links generated")
	}
	for key := range topo.BilateralIXP {
		if !topo.ASes[key.A].HasPeer(key.B) || !topo.ASes[key.B].HasPeer(key.A) {
			t.Fatalf("bilateral link %v not reflected in peer sets", key)
		}
	}
}

func TestMakeLinkKeyCanonical(t *testing.T) {
	if MakeLinkKey(5, 3) != MakeLinkKey(3, 5) {
		t.Fatal("link key not canonical")
	}
	k := MakeLinkKey(7, 2)
	if k.A != 2 || k.B != 7 {
		t.Fatalf("key = %+v", k)
	}
}

func TestScaledMinimum(t *testing.T) {
	cfg := Config{Scale: 0.001}
	if cfg.scaled(50) < 4 {
		t.Fatal("scaled must clamp at 4")
	}
}

// TestGenerateRejectsBadScale pins that a scale which is not a positive
// finite number is refused with an error naming it; NaN and +Inf used to
// slip past a "<= 0" test and build a world clamped to its minimum size.
func TestGenerateRejectsBadScale(t *testing.T) {
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := TestConfig()
		cfg.Scale = scale
		_, err := Generate(cfg)
		if err == nil {
			t.Errorf("scale %v built a world; want an error", scale)
			continue
		}
		if want := fmt.Sprint(scale); !strings.Contains(err.Error(), want) {
			t.Errorf("scale %v: error %q does not name %s", scale, err, want)
		}
	}
}

// TestGenerateRejectsAliasOverflowScale pins the scale cliff: a scale
// whose per-IXP member target cannot fit the scheme's 16-bit alias
// table is refused before anything is built, with an error that names
// the scenario to use instead; scales that do build still build.
func TestGenerateRejectsAliasOverflowScale(t *testing.T) {
	for _, c := range []struct {
		scenario string
		scale    float64
		ok       bool
	}{
		{"baseline", 1, true},
		{"baseline", 3, true},
		{"baseline", 4, false},
		{"baseline", 5, false},
		{"scaled-world", 10, true},
	} {
		cfg := DefaultConfig()
		cfg.Scenario, cfg.Scale = c.scenario, c.scale
		_, err := Generate(cfg)
		switch {
		case c.ok && err != nil:
			t.Errorf("%s at scale %v: %v", c.scenario, c.scale, err)
		case !c.ok && err == nil:
			t.Errorf("%s at scale %v built; want a config-time rejection", c.scenario, c.scale)
		case !c.ok:
			msg := err.Error()
			if !strings.Contains(msg, "scaled-world") || !strings.Contains(msg, "stage allocate-ases") {
				t.Errorf("%s at scale %v: error %q must come from the first stage and name scaled-world",
					c.scenario, c.scale, msg)
			}
		}
	}
}

// TestReciprocalLinksMatchRouteFlows pins the hoisted-filter truth mesh
// to its definition — RouteFlows in both directions, evaluated pair by
// pair — on a world churned through the mutation helpers: leaves, a
// restrictive join, one-sided filter edits and a member left without an
// import filter.
func TestReciprocalLinksMatchRouteFlows(t *testing.T) {
	topo := testTopo(t)
	rng := rand.New(rand.NewSource(11))
	for _, info := range topo.IXPs {
		rs := info.SortedRSMembers()
		if len(rs) < 8 {
			continue
		}
		if err := topo.LeaveRouteServer(info.Name, rs[rng.Intn(len(rs))]); err != nil {
			t.Fatal(err)
		}
		rs = info.SortedRSMembers()
		// One-sided edits: m stops exporting to a few members that still
		// export to it, so those pairs flow one way only.
		for i := 0; i < 3; i++ {
			m := rs[rng.Intn(len(rs))]
			var block []bgp.ASN
			for j := 0; j < 4; j++ {
				if v := rs[rng.Intn(len(rs))]; v != m {
					block = append(block, v)
				}
			}
			if err := topo.SetRSFilters(info.Name, m, ixp.NewExportFilter(ixp.ModeAllExcept, block...), ixp.OpenFilter(), nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range info.SortedMembers() {
			if !info.IsRSMember(m) {
				only := ixp.NewExportFilter(ixp.ModeNoneExcept, rs[0], rs[1])
				if err := topo.JoinRouteServer(info.Name, m, only, only, nil); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		delete(topo.ImportFilters[info.Name], rs[len(rs)-1])
	}

	// A port left with open filters but no route-server session is in
	// no pair: membership, not the filter maps, decides who peers.
	var stray []bgp.ASN
	for _, info := range topo.IXPs {
		for _, m := range info.SortedMembers() {
			if !info.IsRSMember(m) {
				topo.ExportFilters[info.Name][m] = ixp.OpenFilter()
				topo.ImportFilters[info.Name][m] = ixp.OpenFilter()
				stray = append(stray, m)
				break
			}
		}
	}

	all := make(map[LinkKey]bool)
	for _, info := range topo.IXPs {
		want := make(map[LinkKey]bool)
		members := info.SortedRSMembers()
		oneWay := 0
		for i, a := range members {
			for _, b := range members[i+1:] {
				ab, ba := topo.RouteFlows(info.Name, a, b), topo.RouteFlows(info.Name, b, a)
				if ab && ba {
					want[MakeLinkKey(a, b)] = true
					all[MakeLinkKey(a, b)] = true
				} else if ab || ba {
					oneWay++
				}
			}
		}
		if len(members) >= 8 && oneWay == 0 {
			t.Errorf("%s: no one-way pair; the churn exercised nothing", info.Name)
		}
		if got := topo.GroundTruthReciprocalLinks(info.Name); !maps.Equal(got, want) {
			t.Errorf("%s: %d reciprocal links, per-pair RouteFlows gives %d", info.Name, len(got), len(want))
		}
	}
	if got := topo.AllGroundTruthReciprocalLinks(); !maps.Equal(got, all) {
		t.Errorf("all IXPs: %d reciprocal links, per-pair RouteFlows gives %d", len(got), len(all))
	}
	// The sorted list is the same mesh, ascending, each link once (a
	// link reciprocal at two IXPs is scanned twice).
	if got, want := topo.SortedGroundTruthReciprocalLinks(), slices.SortedFunc(maps.Keys(all), CompareLinkKeys); !slices.Equal(got, want) {
		t.Errorf("all IXPs: sorted list of %d links, per-pair RouteFlows gives %d", len(got), len(want))
	}
	// IsReciprocalLink is the same rule asked pair by pair: two-way
	// RouteFlows at some IXP where both are RS members.
	for _, info := range topo.IXPs {
		members := info.SortedRSMembers()
		for i, a := range members {
			for _, b := range members[i+1:] {
				if got := topo.IsReciprocalLink(a, b); got != all[MakeLinkKey(a, b)] || got != topo.IsReciprocalLink(b, a) {
					t.Fatalf("%s: IsReciprocalLink(%s, %s) = %v, two-way RouteFlows at some IXP = %v",
						info.Name, a, b, got, all[MakeLinkKey(a, b)])
				}
			}
			for _, s := range stray {
				if got := topo.IsReciprocalLink(a, s); got != all[MakeLinkKey(a, s)] {
					t.Fatalf("IsReciprocalLink(%s, %s) = %v: the filters %s holds without an RS session must not count", a, s, got, s)
				}
			}
			if topo.IsReciprocalLink(a, a) {
				t.Fatalf("IsReciprocalLink(%s, %s) holds for a self pair", a, a)
			}
		}
	}
	if topo.GroundTruthReciprocalLinks("NO-SUCH-IXP") != nil {
		t.Error("unknown IXP must give nil")
	}
}
