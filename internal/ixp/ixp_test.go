package ixp

import (
	"slices"
	"testing"
	"testing/quick"

	"mlpeering/internal/bgp"
)

func TestStandardSchemeClassify(t *testing.T) {
	s := StandardScheme(6695)
	cases := []struct {
		c    string
		act  Action
		peer bgp.ASN
	}{
		{"6695:6695", ActionAll, 0},
		{"0:6695", ActionBlock, 0},
		{"0:5410", ActionExclude, 5410},
		{"6695:8359", ActionInclude, 8359},
		{"3356:100", ActionNone, 0},
		{"8631:8631", ActionNone, 0}, // another IXP's ALL
	}
	for _, c := range cases {
		comm, err := bgp.ParseCommunity(c.c)
		if err != nil {
			t.Fatal(err)
		}
		act, peer := s.Classify(comm)
		if act != c.act || peer != c.peer {
			t.Errorf("Classify(%s) = %v, %v; want %v, %v", c.c, act, peer, c.act, c.peer)
		}
	}
}

func TestPrivateRangeSchemeClassify(t *testing.T) {
	s := PrivateRangeScheme(9033)
	cases := []struct {
		c    string
		act  Action
		peer bgp.ASN
	}{
		{"9033:9033", ActionAll, 0},
		{"65000:0", ActionBlock, 0}, // NONE must shadow INCLUDE of peer 0
		{"64960:8447", ActionExclude, 8447},
		{"65000:8447", ActionInclude, 8447},
		{"0:8447", ActionNone, 0}, // DE-CIX-style EXCLUDE is foreign here
	}
	for _, c := range cases {
		comm, _ := bgp.ParseCommunity(c.c)
		act, peer := s.Classify(comm)
		if act != c.act || peer != c.peer {
			t.Errorf("Classify(%s) = %v, %v; want %v, %v", c.c, act, peer, c.act, c.peer)
		}
	}
}

func TestSchemeMapperResolution(t *testing.T) {
	s := StandardScheme(6695)
	alias, err := s.EncodePeer(196615)
	if err != nil {
		t.Fatal(err)
	}
	if !alias.IsPrivate() {
		t.Fatalf("alias %v not private", alias)
	}
	c, err := s.Exclude(196615)
	if err != nil {
		t.Fatal(err)
	}
	act, peer := s.Classify(c)
	if act != ActionExclude || peer != 196615 {
		t.Fatalf("round trip through alias: %v, %v", act, peer)
	}
}

func TestSchemeIdentifiable(t *testing.T) {
	std := StandardScheme(6695)
	if !std.Identifiable(std.All) || !std.Identifiable(std.None) {
		t.Fatal("ALL/NONE must identify standard scheme")
	}
	inc, _ := std.Include(8359)
	if !std.Identifiable(inc) {
		t.Fatal("standard INCLUDE embeds RS ASN")
	}
	exc, _ := std.Exclude(8359)
	if std.Identifiable(exc) {
		t.Fatal("standard EXCLUDE (0:peer) must be ambiguous")
	}

	prv := PrivateRangeScheme(9033)
	if !prv.Identifiable(prv.All) {
		t.Fatal("private-range ALL embeds RS ASN")
	}
	pexc, _ := prv.Exclude(8447)
	pinc, _ := prv.Include(8447)
	if prv.Identifiable(pexc) || prv.Identifiable(pinc) {
		t.Fatal("private-range EXCLUDE/INCLUDE must be ambiguous")
	}
}

func TestExportFilterAllows(t *testing.T) {
	f := NewExportFilter(ModeAllExcept, 5410, 8732)
	if f.Allows(5410) || f.Allows(8732) {
		t.Fatal("excluded peers allowed")
	}
	if !f.Allows(8359) {
		t.Fatal("unlisted peer blocked")
	}

	g := NewExportFilter(ModeNoneExcept, 8359, 8447)
	if !g.Allows(8359) || !g.Allows(8447) {
		t.Fatal("included peers blocked")
	}
	if g.Allows(5410) {
		t.Fatal("unlisted peer allowed in NONE mode")
	}

	open := OpenFilter()
	if !open.Allows(1) || !open.Allows(9999) {
		t.Fatal("open filter must allow everyone")
	}
}

func TestExportFilterAllowedCount(t *testing.T) {
	members := []bgp.ASN{1, 2, 3, 4, 5}
	f := NewExportFilter(ModeAllExcept, 2)
	// Self (3) never counts; 2 excluded; 1,4,5 allowed.
	if n := f.AllowedCount(members, 3); n != 3 {
		t.Fatalf("AllowedCount = %d", n)
	}
}

func TestFilterCommunitiesRoundTrip(t *testing.T) {
	s := StandardScheme(6695)
	cases := []ExportFilter{
		OpenFilter(),
		NewExportFilter(ModeAllExcept, 5410, 8732),
		NewExportFilter(ModeNoneExcept, 8359, 8447),
		NewExportFilter(ModeNoneExcept), // announce to nobody
	}
	for i, f := range cases {
		cs, err := f.Communities(&s)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		back := FilterFromCommunities(cs, s)
		if !back.Equal(f) {
			t.Fatalf("case %d: %v -> %v -> %v", i, f, cs, back)
		}
	}
}

func TestFilterCommunitiesFigure2(t *testing.T) {
	// Reproduce the exact wire examples of figure 2 of the paper.
	s := StandardScheme(6695)

	// (a) NONE+INCLUDE: 0:6695 6695:8359 6695:8447
	f := NewExportFilter(ModeNoneExcept, 8359, 8447)
	cs, err := f.Communities(&s)
	if err != nil {
		t.Fatal(err)
	}
	if cs.String() != "0:6695 6695:8359 6695:8447" {
		t.Fatalf("(a) = %q", cs.String())
	}

	// (b) ALL+EXCLUDE: 6695:6695 0:5410 0:8732
	g := NewExportFilter(ModeAllExcept, 5410, 8732)
	cs, err = g.Communities(&s)
	if err != nil {
		t.Fatal(err)
	}
	if cs.String() != "6695:6695 0:5410 0:8732" {
		t.Fatalf("(b) = %q", cs.String())
	}
}

func TestOmitDefaultAndRecovery(t *testing.T) {
	s := StandardScheme(8631) // MSK-IX style: EXCLUDE is 0:peer, ambiguous
	f := NewExportFilter(ModeAllExcept, 5410)
	cs, _ := f.Communities(&s)
	stripped := OmitDefault(cs, s)
	if slices.Contains(stripped, s.All) {
		t.Fatal("ALL not stripped")
	}
	// The filter is still reconstructable from EXCLUDE alone.
	back := FilterFromCommunities(stripped, s)
	if !back.Equal(f) {
		t.Fatalf("recovered %v, want %v", back, f)
	}
}

func TestFilterFromForeignCommunities(t *testing.T) {
	s := StandardScheme(6695)
	// Route tagged only with another IXP's communities and informational
	// values: must decode to the default open policy.
	cs := bgp.Communities{bgp.MakeCommunity(8631, 8631), bgp.MakeCommunity(3356, 70)}
	f := FilterFromCommunities(cs, s)
	if !f.Equal(OpenFilter()) {
		t.Fatalf("foreign communities produced %v", f)
	}
	if got := s.RelevantCommunities(cs); len(got) != 0 {
		t.Fatalf("RelevantCommunities leaked %v", got)
	}
}

func TestFilterRoundTripProperty(t *testing.T) {
	s := StandardScheme(6695)
	f := func(mode bool, peers []uint16) bool {
		m := ModeAllExcept
		if mode {
			m = ModeNoneExcept
		}
		var asns []bgp.ASN
		for _, p := range peers {
			if p == 0 || bgp.ASN(p) == 6695 {
				continue // peer 0 and self-reference are not encodable targets
			}
			asns = append(asns, bgp.ASN(p))
		}
		filt := NewExportFilter(m, asns...)
		cs, err := filt.Communities(&s)
		if err != nil {
			return false
		}
		return FilterFromCommunities(cs, s).Equal(filt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInfoMembership(t *testing.T) {
	x := &Info{
		Name:      "TEST-IX",
		Members:   []bgp.ASN{10, 20, 30},
		RSMembers: []bgp.ASN{30, 10},
	}
	if !x.IsMember(20) || x.IsMember(99) {
		t.Fatal("IsMember")
	}
	if !x.IsRSMember(10) || x.IsRSMember(20) {
		t.Fatal("IsRSMember")
	}
	sorted := x.SortedRSMembers()
	if sorted[0] != 10 || sorted[1] != 30 {
		t.Fatalf("SortedRSMembers = %v", sorted)
	}
}

func TestRegionStringAndEurope(t *testing.T) {
	if !RegionWestEU.IsEurope() || RegionNorthAmerica.IsEurope() {
		t.Fatal("IsEurope")
	}
	seen := map[string]bool{}
	for r := Region(0); r < Region(NumRegions); r++ {
		s := r.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("region %d string %q", r, s)
		}
		seen[s] = true
	}
}
