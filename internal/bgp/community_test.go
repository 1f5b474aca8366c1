package bgp

import (
	"testing"
	"testing/quick"
)

func TestCommunityHalves(t *testing.T) {
	c := MakeCommunity(6695, 8359)
	if c.High() != 6695 || c.Low() != 8359 {
		t.Fatalf("halves = %v:%v, want 6695:8359", c.High(), c.Low())
	}
	if c.String() != "6695:8359" {
		t.Fatalf("String = %q", c.String())
	}
}

func TestMakeCommunityTruncates(t *testing.T) {
	// 32-bit ASNs cannot be encoded; MakeCommunity truncates like a
	// router would (this is why IXPs use ASN mappers).
	c := MakeCommunity(0, 196615)
	if c.Low() == 196615 {
		t.Fatal("32-bit value must not survive in 16-bit field")
	}
	if c.Low() != ASN(196615&0xFFFF) {
		t.Fatalf("Low = %v, want truncation", c.Low())
	}
}

func TestParseCommunity(t *testing.T) {
	cases := []struct {
		in      string
		want    Community
		wantErr bool
	}{
		{"6695:6695", MakeCommunity(6695, 6695), false},
		{"0:5410", MakeCommunity(0, 5410), false},
		{"65000:0", MakeCommunity(65000, 0), false},
		{"no-export", CommunityNoExport, false},
		{"NO-ADVERTISE", CommunityNoAdvertise, false},
		{"6695", 0, true},
		{"6695:", 0, true},
		{":123", 0, true},
		{"70000:1", 0, true},
		{"1:70000", 0, true},
		{"a:b", 0, true},
	}
	for _, c := range cases {
		got, err := ParseCommunity(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseCommunity(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseCommunity(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCommunityStringParseRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		c := Community(v)
		parsed, err := ParseCommunity(c.String())
		return err == nil && parsed == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseCommunities(t *testing.T) {
	cs, err := ParseCommunities("6695:6695  0:5410\t0:8732")
	if err != nil {
		t.Fatal(err)
	}
	want := Communities{MakeCommunity(6695, 6695), MakeCommunity(0, 5410), MakeCommunity(0, 8732)}
	if len(cs) != 3 {
		t.Fatalf("len = %d", len(cs))
	}
	for i := range want {
		if cs[i] != want[i] {
			t.Fatalf("cs[%d] = %v, want %v", i, cs[i], want[i])
		}
	}
	if cs.String() != "6695:6695 0:5410 0:8732" {
		t.Fatalf("String = %q", cs.String())
	}

	if _, err := ParseCommunities("6695:6695 bogus"); err == nil {
		t.Fatal("expected error for bogus member")
	}
	empty, err := ParseCommunities("   ")
	if err != nil || empty != nil {
		t.Fatalf("empty parse = %v, %v", empty, err)
	}
}

func TestCommunitiesSetOps(t *testing.T) {
	cs := Communities{MakeCommunity(6695, 2), MakeCommunity(6695, 1), MakeCommunity(0, 9), MakeCommunity(6695, 1)}

	d := cs.Dedup()
	if len(d) != 3 {
		t.Fatalf("Dedup len = %d, want 3", len(d))
	}
	for i := 1; i < len(d); i++ {
		if d[i-1] >= d[i] {
			t.Fatal("Dedup not sorted strictly")
		}
	}

	other := Communities{MakeCommunity(0, 9), MakeCommunity(6695, 1), MakeCommunity(6695, 2)}
	if !cs.Equal(other) {
		t.Fatal("Equal should ignore order and multiplicity")
	}
	if cs.Equal(Communities{MakeCommunity(0, 9)}) {
		t.Fatal("Equal false positive")
	}
}

func TestCommunitiesCloneIndependence(t *testing.T) {
	cs := Communities{MakeCommunity(1, 1)}
	cl := cs.Clone()
	cl[0] = MakeCommunity(2, 2)
	if cs[0] != MakeCommunity(1, 1) {
		t.Fatal("Clone aliases original")
	}
	if Communities(nil).Clone() != nil {
		t.Fatal("nil Clone should be nil")
	}
}
