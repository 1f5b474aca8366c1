package geo

import (
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
)

func testDB() *Database {
	return New(map[bgp.Prefix]ixp.Region{
		bgp.MustPrefix("20.0.0.0/22"): ixp.RegionWestEU,
		bgp.MustPrefix("20.0.4.0/22"): ixp.RegionWestEU,
		bgp.MustPrefix("20.0.8.0/22"): ixp.RegionEastEU,
		bgp.MustPrefix("20.1.0.0/22"): ixp.RegionNorthAmerica,
		bgp.MustPrefix("20.1.4.0/22"): ixp.RegionAsiaPacific,
		bgp.MustPrefix("20.2.0.0/16"): ixp.RegionAfrica,
		bgp.MustPrefix("20.2.4.0/22"): ixp.RegionLatinAmerica, // more specific than the /16
	})
}

func TestLookups(t *testing.T) {
	d := testDB()
	if len(d.regions) != 7 {
		t.Fatalf("%d entries, want 7", len(d.regions))
	}
}

func TestSpreadSelectMaximizesDiversity(t *testing.T) {
	d := testDB()
	prefixes := []bgp.Prefix{
		bgp.MustPrefix("20.0.0.0/22"), // eu-west
		bgp.MustPrefix("20.0.4.0/22"), // eu-west
		bgp.MustPrefix("20.0.8.0/22"), // eu-east
		bgp.MustPrefix("20.1.0.0/22"), // na
		bgp.MustPrefix("20.1.4.0/22"), // apac
	}
	got := d.SpreadSelect(prefixes, 3)
	if len(got) != 3 {
		t.Fatalf("selected %d", len(got))
	}
	regions := make(map[ixp.Region]bool)
	for _, p := range got {
		regions[d.regions[p]] = true
	}
	if len(regions) != 3 {
		t.Fatalf("only %d distinct regions in %v", len(regions), got)
	}

	// Selecting more than available returns all, deterministically.
	all1 := d.SpreadSelect(prefixes, 10)
	all2 := d.SpreadSelect(prefixes, 10)
	if len(all1) != len(prefixes) {
		t.Fatalf("selected %d of %d", len(all1), len(prefixes))
	}
	for i := range all1 {
		if all1[i] != all2[i] {
			t.Fatal("selection not deterministic")
		}
	}
}

func TestSpreadSelectEdgeCases(t *testing.T) {
	d := testDB()
	if d.SpreadSelect(nil, 3) != nil {
		t.Fatal("empty input")
	}
	if d.SpreadSelect([]bgp.Prefix{bgp.MustPrefix("20.0.0.0/22")}, 0) != nil {
		t.Fatal("zero k")
	}
	// Unknown prefixes are used only as filler.
	mixed := []bgp.Prefix{
		bgp.MustPrefix("99.0.0.0/22"), // unknown
		bgp.MustPrefix("20.1.0.0/22"), // na
		bgp.MustPrefix("20.1.4.0/22"), // apac
	}
	got := d.SpreadSelect(mixed, 2)
	for _, p := range got {
		if _, ok := d.regions[p]; !ok {
			t.Fatalf("unknown prefix %v chosen before known ones", p)
		}
	}
}
