package core

import (
	"slices"
	"strings"
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/irr"
	"mlpeering/internal/ixp"
	"mlpeering/internal/paths"
	"mlpeering/internal/relation"
	"mlpeering/internal/topology"
)

func testDict(t testing.TB) *Dictionary {
	t.Helper()
	sites := []WebsiteData{
		{Name: "DE-CIX", Scheme: ixp.StandardScheme(6695), PublishesMemberList: true,
			PublishedRSMembers: []bgp.ASN{100, 200, 300, 8359}},
		{Name: "MSK-IX", Scheme: ixp.StandardScheme(8631), PublishesMemberList: true,
			PublishedRSMembers: []bgp.ASN{100, 400, 500}},
		{Name: "ECIX", Scheme: ixp.PrivateRangeScheme(9033), PublishesMemberList: true,
			PublishedRSMembers: []bgp.ASN{600, 700}},
	}
	d, err := BuildDictionary(sites, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func comms(t testing.TB, s string) bgp.Communities {
	t.Helper()
	cs, err := bgp.ParseCommunities(s)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestIdentifyIXPStrong(t *testing.T) {
	d := testDict(t)

	// ALL community names the IXP.
	e, ok := d.IdentifyIXP(comms(t, "6695:6695 0:200"))
	if !ok || e.Name != "DE-CIX" {
		t.Fatalf("got %v, %v", e, ok)
	}
	// INCLUDE with the RS ASN in the high half.
	e, ok = d.IdentifyIXP(comms(t, "0:8631 8631:400"))
	if !ok || e.Name != "MSK-IX" {
		t.Fatalf("got %v, %v", e, ok)
	}
	// Unrelated communities identify nothing.
	if _, ok := d.IdentifyIXP(comms(t, "3356:70 1299:20000")); ok {
		t.Fatal("identified from noise")
	}
}

func TestIdentifyIXPExcludeDisambiguation(t *testing.T) {
	d := testDict(t)

	// 0:200 is EXCLUDE at any standard-scheme IXP (the omitted-ALL
	// case of §4.2). 200 is a member only at DE-CIX.
	e, ok := d.IdentifyIXP(comms(t, "0:200"))
	if !ok || e.Name != "DE-CIX" {
		t.Fatalf("got %v, %v", e, ok)
	}
	// 0:100 is ambiguous: 100 is a member of both DE-CIX and MSK-IX.
	if _, ok := d.IdentifyIXP(comms(t, "0:100")); ok {
		t.Fatal("ambiguous combination identified")
	}
	// The combination {100, 300} is unique to DE-CIX.
	e, ok = d.IdentifyIXP(comms(t, "0:100 0:300"))
	if !ok || e.Name != "DE-CIX" {
		t.Fatalf("combination: got %v, %v", e, ok)
	}
	// A referenced AS that is nobody's member matches nothing.
	if _, ok := d.IdentifyIXP(comms(t, "0:999")); ok {
		t.Fatal("non-member exclude identified")
	}
}

func TestBuildDictionaryRejectsDuplicates(t *testing.T) {
	sites := []WebsiteData{
		{Name: "X", Scheme: ixp.StandardScheme(1)},
		{Name: "X", Scheme: ixp.StandardScheme(2)},
	}
	if _, err := BuildDictionary(sites, nil); err == nil {
		t.Fatal("duplicate IXP accepted")
	}
}

func TestDictionaryIRRFallbacks(t *testing.T) {
	rpsl := `as-set:  AS-NOLIST-RSMEMBERS
members: AS11, AS12
source:  SYNTH

aut-num: AS21
as-name: FOO
export:  to AS8714 announce ANY
source:  SYNTH
`
	objs, err := irr.Parse(strings.NewReader(rpsl))
	if err != nil {
		t.Fatal(err)
	}
	reg := irr.NewRegistry()
	for _, o := range objs {
		reg.Add(o)
	}
	sites := []WebsiteData{
		{Name: "NOLIST", Scheme: ixp.StandardScheme(4999)},
		{Name: "LINXLIKE", Scheme: ixp.StandardScheme(8714)},
	}
	d, err := BuildDictionary(sites, reg)
	if err != nil {
		t.Fatal(err)
	}
	if e := d.ByName("NOLIST"); e.Source() != SourceASSet || !e.IsMember(11) {
		t.Fatalf("as-set fallback: %v %v", e.Source(), e.Members())
	}
	if e := d.ByName("LINXLIKE"); e.Source() != SourceIRRSearch || !e.IsMember(21) {
		t.Fatalf("IRR search fallback: %v %v", e.Source(), e.Members())
	}
}

func TestEntrySourcePreference(t *testing.T) {
	e := &IXPEntry{Name: "X", Scheme: ixp.StandardScheme(1)}
	e.SetMembers([]bgp.ASN{1, 2}, SourceWebsite)
	// A weaker source cannot overwrite.
	e.SetMembers([]bgp.ASN{9}, SourceIRRSearch)
	if !e.IsMember(1) || e.IsMember(9) {
		t.Fatal("weaker source overwrote")
	}
	// LG can.
	e.SetMembers([]bgp.ASN{1, 2, 3}, SourceLG)
	if !e.IsMember(3) || e.MemberCount() != 3 {
		t.Fatal("LG source rejected")
	}
	// Empty update ignored.
	e.SetMembers(nil, SourceLG)
	if e.MemberCount() != 3 {
		t.Fatal("empty update wiped members")
	}
}

func TestObservationsFilterMajority(t *testing.T) {
	obs := NewObservations()
	scheme := ixp.StandardScheme(6695)
	// Three prefixes with the true filter, one polluted observation.
	truth := comms(t, "6695:6695 0:200")
	for i, cs := range []bgp.Communities{truth, truth, truth, comms(t, "0:6695 6695:300")} {
		p := bgp.PrefixFrom(bgp.MustPrefix("10.0.0.0/24").Addr(), 24)
		_ = p
		pfx := bgp.MustPrefix("10.0." + string(rune('0'+i)) + ".0/24")
		obs.Add("DE-CIX", 100, pfx, cs, ObsPassive)
	}
	f, ok := obs.Filter("DE-CIX", 100, scheme)
	if !ok {
		t.Fatal("no filter")
	}
	want := ixp.NewExportFilter(ixp.ModeAllExcept, 200)
	if !f.Equal(want) {
		t.Fatalf("filter = %v, want %v", f, want)
	}

	st := obs.Consistency("DE-CIX")
	if st.Setters != 1 || st.InconsistentSetters != 1 {
		t.Fatalf("consistency = %+v", st)
	}
	if st.DeviantPrefixFrac <= 0 || st.DeviantPrefixFrac > 0.5 {
		t.Fatalf("deviant frac = %v", st.DeviantPrefixFrac)
	}
}

func TestObservationsSourcesAndMerge(t *testing.T) {
	a := NewObservations()
	a.Add("X", 1, bgp.MustPrefix("10.0.0.0/24"), comms(t, "1:1"), ObsPassive)
	b := NewObservations()
	b.Add("X", 1, bgp.MustPrefix("10.0.1.0/24"), comms(t, "1:1"), ObsActive)
	b.Add("X", 2, bgp.MustPrefix("10.0.2.0/24"), comms(t, "1:1"), ObsActive)

	a.Merge(b)
	if a.Source("X", 1) != ObsPassive|ObsActive {
		t.Fatalf("source = %v", a.Source("X", 1))
	}
	if a.Source("X", 2) != ObsActive {
		t.Fatalf("source = %v", a.Source("X", 2))
	}
	if got := a.Setters("X"); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("setters = %v", got)
	}
	if a.PrefixCount("X", 1) != 2 {
		t.Fatalf("prefix count = %d", a.PrefixCount("X", 1))
	}
	if !a.Covered("X", 2) || a.Covered("Y", 2) {
		t.Fatal("covered")
	}
	if got := a.IXPs(); len(got) != 1 || got[0] != "X" {
		t.Fatalf("IXPs = %v", got)
	}
}

func TestPinpointSetter(t *testing.T) {
	entry := &IXPEntry{Name: "TIX", Scheme: ixp.StandardScheme(6695)}
	entry.SetMembers([]bgp.ASN{20, 30, 40}, SourceWebsite)

	// Case 1: fewer than two members.
	if _, ok := PinpointSetter([]bgp.ASN{1, 2, 20, 3}, entry, nil); ok {
		t.Fatal("case 1 resolved")
	}
	// Case 2: exactly two members -> closest to origin.
	s, ok := PinpointSetter([]bgp.ASN{1, 20, 30, 3}, entry, nil)
	if !ok || s != 30 {
		t.Fatalf("case 2 = %v, %v", s, ok)
	}
	// Case 3: three members; the p2p pair marks the RS crossing.
	paths := [][]bgp.ASN{
		{20, 30}, {30, 20}, // make 20-30 look p2p via conflicting votes
		{1, 20, 30},
		{2, 30, 20},
	}
	rels := relation.InferPaths(paths)
	if rels.Relationship(20, 30) != relation.RelP2P {
		t.Skip("synthetic relationship setup did not converge to p2p")
	}
	s, ok = PinpointSetter([]bgp.ASN{40, 20, 30, 5}, entry, rels)
	if !ok || s != 30 {
		t.Fatalf("case 3 = %v, %v", s, ok)
	}
	// Case 3 with no p2p member pair: unresolved.
	if _, ok := PinpointSetter([]bgp.ASN{40, 5, 20, 6, 30}, entry, rels); ok {
		t.Fatal("non-adjacent members resolved")
	}
}

func TestHygieneHelpers(t *testing.T) {
	if !hasBogon([]bgp.ASN{1, 23456, 2}) || hasBogon([]bgp.ASN{1, 2}) {
		t.Fatal("bogon detection")
	}
	if !hasCycle([]bgp.ASN{1, 2, 1}) || hasCycle([]bgp.ASN{1, 2, 3}) {
		t.Fatal("cycle detection")
	}
	s := paths.NewStore()
	if s.Intern([]bgp.ASN{1, 2}) == s.Intern([]bgp.ASN{1, 3}) {
		t.Fatal("distinct paths interned to one id")
	}
}

func TestSampleTarget(t *testing.T) {
	cfg := ActiveConfig{SamplePct: 0.10, MaxPrefixesPerMember: 100}
	cases := []struct{ in, want int }{
		{0, 0}, {1, 1}, {5, 1}, {10, 1}, {11, 2}, {100, 10}, {250, 25}, {2000, 100},
	}
	for _, c := range cases {
		if got := sampleTarget(c.in, cfg); got != c.want {
			t.Errorf("sampleTarget(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestPathConfirms(t *testing.T) {
	// Host 10 validating link 10-20, path starts at 20.
	if !pathConfirms(10, []bgp.ASN{20, 30}, 10, 20) {
		t.Fatal("adjacent at host")
	}
	// Link deeper in the path, either orientation.
	if !pathConfirms(1, []bgp.ASN{5, 20, 10, 9}, 10, 20) {
		t.Fatal("mid-path")
	}
	if pathConfirms(1, []bgp.ASN{5, 20, 7, 10}, 10, 20) {
		t.Fatal("non-adjacent confirmed")
	}
	if !pathContains([]bgp.ASN{1, 2, 3}, 2) || pathContains([]bgp.ASN{1, 2, 3}, 9) {
		t.Fatal("pathContains")
	}
}

// reciprocalLinks recomputes x's links from its covered members'
// filters by the reciprocity rule, ascending: an oracle independent of
// the Result's attribution map.
func reciprocalLinks(x *IXPInference) []topology.LinkKey {
	var out []topology.LinkKey
	for i, a := range x.Covered {
		for _, b := range x.Covered[i+1:] {
			if x.Filters[a].Allows(b) && x.Filters[b].Allows(a) {
				out = append(out, topology.MakeLinkKey(a, b))
			}
		}
	}
	slices.SortFunc(out, topology.CompareLinkKeys)
	return out
}

func TestInferLinksReciprocity(t *testing.T) {
	d := testDict(t)
	obs := NewObservations()
	// At DE-CIX: 100 allows all but excludes 300; 200 allows all;
	// 300 allows only 100.
	obs.Add("DE-CIX", 100, bgp.MustPrefix("10.0.0.0/24"), comms(t, "6695:6695 0:300"), ObsPassive)
	obs.Add("DE-CIX", 200, bgp.MustPrefix("10.0.1.0/24"), comms(t, "6695:6695"), ObsActive)
	obs.Add("DE-CIX", 300, bgp.MustPrefix("10.0.2.0/24"), comms(t, "0:6695 6695:100"), ObsActive)
	// A stray setter outside known connectivity is ignored.
	obs.Add("DE-CIX", 999, bgp.MustPrefix("10.0.3.0/24"), comms(t, "6695:6695"), ObsActive)

	res := InferLinks(d, obs)
	x := res.PerIXP["DE-CIX"]
	if len(x.Filters) != 3 {
		t.Fatalf("filters = %d", len(x.Filters))
	}
	if !slices.Equal(x.Covered, []bgp.ASN{100, 200, 300}) {
		t.Fatalf("covered = %v", x.Covered)
	}
	// 100-200: mutual allow -> link. 100-300: 100 excludes 300 (and 300
	// includes 100, but not mutual). 200-300: 300 does not include 200.
	want := []topology.LinkKey{topology.MakeLinkKey(100, 200)}
	if got := reciprocalLinks(x); !slices.Equal(got, want) {
		t.Fatalf("reciprocity oracle = %v, want %v", got, want)
	}
	if got := res.IXPLinks("DE-CIX"); !slices.Equal(got, want) {
		t.Fatalf("IXPLinks = %v, want %v", got, want)
	}
	if res.TotalLinks() != 1 || res.SumPerIXPLinks() != 1 || res.MultiIXPLinks() != 0 {
		t.Fatalf("totals: %d %d %d", res.TotalLinks(), res.SumPerIXPLinks(), res.MultiIXPLinks())
	}
	if res.IXPLinks("ECIX") != nil || res.IXPLinks("NOPE") != nil {
		t.Fatal("IXPLinks of an IXP without links")
	}
	if x.PassiveCount() != 1 || x.ActiveCount() != 2 {
		t.Fatalf("coverage split: pasv=%d act=%d", x.PassiveCount(), x.ActiveCount())
	}
}
