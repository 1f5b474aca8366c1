package bgp

import (
	"testing"
	"testing/quick"
)

func TestParseASN(t *testing.T) {
	cases := []struct {
		in      string
		want    ASN
		wantErr bool
	}{
		{"6695", 6695, false},
		{"AS6695", 6695, false},
		{"as13030", 13030, false},
		{"4294967295", 4294967295, false},
		{"4294967296", 0, true},
		{"", 0, true},
		{"AS", 0, true},
		{"-1", 0, true},
		{"65a", 0, true},
	}
	for _, c := range cases {
		got, err := ParseASN(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseASN(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseASN(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestASNClassification(t *testing.T) {
	cases := []struct {
		asn                           ASN
		private, reserved, routable32 bool
	}{
		{6695, false, false, true},
		{0, false, true, false},
		{23456, false, true, false},
		{63487, false, false, true},
		// The paper filters the whole 63488-131071 block, which contains
		// the 16-bit private range: such ASNs are both private and
		// reserved, and never routable.
		{63488, false, true, false},
		{64511, false, true, false},
		{64512, true, true, false},
		{65534, true, true, false},
		{65535, false, true, false},
		{131071, false, true, false},
		{131072, false, false, true},
		{4200000000, true, false, false},
		{4294967295, false, true, false},
	}
	for _, c := range cases {
		if got := c.asn.IsPrivate(); got != c.private {
			t.Errorf("ASN(%d).IsPrivate() = %v, want %v", c.asn, got, c.private)
		}
		if got := c.asn.IsReserved(); got != c.reserved {
			t.Errorf("ASN(%d).IsReserved() = %v, want %v", c.asn, got, c.reserved)
		}
		if got := c.asn.Routable(); got != c.routable32 {
			t.Errorf("ASN(%d).Routable() = %v, want %v", c.asn, got, c.routable32)
		}
	}
}

func TestASNIs32Bit(t *testing.T) {
	if ASN(65535).Is32Bit() {
		t.Error("65535 should fit in 16 bits")
	}
	if !ASN(65536).Is32Bit() {
		t.Error("65536 should be 32-bit")
	}
}

func TestASNMapperAliasing(t *testing.T) {
	m := NewASNMapper()

	// 16-bit ASNs pass through.
	a, err := m.Alias(6695)
	if err != nil || a != 6695 {
		t.Fatalf("Alias(6695) = %v, %v; want identity", a, err)
	}
	if len(m.fwd) != 0 {
		t.Fatalf("identity aliasing must not consume table space, %d aliased", len(m.fwd))
	}

	// 32-bit ASNs get stable private aliases.
	a1, err := m.Alias(196615)
	if err != nil {
		t.Fatal(err)
	}
	if !a1.IsPrivate() || a1.Is32Bit() {
		t.Fatalf("alias %v not a 16-bit private ASN", a1)
	}
	a2, _ := m.Alias(196615)
	if a1 != a2 {
		t.Fatalf("alias not stable: %v vs %v", a1, a2)
	}
	b1, _ := m.Alias(196616)
	if b1 == a1 {
		t.Fatalf("distinct ASNs mapped to same alias %v", a1)
	}

	// Resolution round-trips.
	if got := m.Resolve(a1); got != 196615 {
		t.Fatalf("Resolve(%v) = %v, want 196615", a1, got)
	}
	if got := m.Resolve(6695); got != 6695 {
		t.Fatalf("Resolve(6695) = %v, want identity", got)
	}
	if len(m.fwd) != 2 {
		t.Fatalf("%d aliased, want 2", len(m.fwd))
	}
}

func TestASNMapperExhaustion(t *testing.T) {
	m := NewASNMapper()
	n := int(LastPrivate16-FirstPrivate16) + 1
	for i := 0; i < n; i++ {
		if _, err := m.Alias(ASN(200000 + i)); err != nil {
			t.Fatalf("alias %d failed early: %v", i, err)
		}
	}
	if _, err := m.Alias(ASN(999999999)); err == nil {
		t.Fatal("expected exhaustion error")
	}
}

func TestASNMapperRoundTripProperty(t *testing.T) {
	m := NewASNMapper()
	f := func(raw uint32) bool {
		asn := ASN(raw)
		alias, err := m.Alias(asn)
		if err != nil {
			return true // exhaustion is allowed under quick's input volume
		}
		return m.Resolve(alias) == asn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
