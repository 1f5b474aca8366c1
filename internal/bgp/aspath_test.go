package bgp

import (
	"testing"
	"testing/quick"
)

func TestASPathBasics(t *testing.T) {
	p := NewASPath(3356, 6695, 8359)
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
	if p.String() != "3356 6695 8359" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestASPathEmpty(t *testing.T) {
	var p ASPath
	if p.Len() != 0 {
		t.Fatal("empty Len")
	}
	if NewASPath() != nil {
		t.Fatal("NewASPath() should be nil")
	}
}

func TestASPathSetRendering(t *testing.T) {
	p := ASPath{
		{ASNs: []ASN{701, 1239}},
		{Set: true, ASNs: []ASN{3, 4}},
	}
	if p.String() != "701 1239 {3,4}" {
		t.Fatalf("String = %q", p.String())
	}
	if p.Len() != 3 { // set counts once
		t.Fatalf("Len = %d", p.Len())
	}
	back, err := ParseASPath(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(p) {
		t.Fatalf("round trip: %v vs %v", back, p)
	}
}

func TestParseASPathErrors(t *testing.T) {
	for _, bad := range []string{"1 2 x", "{1,y}", "99999999999"} {
		if _, err := ParseASPath(bad); err == nil {
			t.Errorf("ParseASPath(%q): expected error", bad)
		}
	}
	p, err := ParseASPath("")
	if err != nil || p != nil {
		t.Fatalf("empty parse = %v, %v", p, err)
	}
}

func TestASPathCycleDetection(t *testing.T) {
	cases := []struct {
		path []ASN
		want bool
	}{
		{[]ASN{1, 2, 3}, false},
		{[]ASN{1, 2, 2, 2, 3}, false}, // prepending
		{[]ASN{1, 2, 3, 1}, true},     // poisoning loop
		{[]ASN{1, 2, 1, 2}, true},
		{[]ASN{7}, false},
		{nil, false},
	}
	for _, c := range cases {
		p := NewASPath(c.path...)
		if got := p.HasCycle(); got != c.want {
			t.Errorf("HasCycle(%v) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestASPathWireRoundTrip4(t *testing.T) {
	p := ASPath{
		{ASNs: []ASN{3356, 196615, 8359}}, // includes a 32-bit ASN
		{Set: true, ASNs: []ASN{64512, 70000}},
	}
	wire := p.appendWire(nil, true)
	back, err := decodeASPath(wire, true)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(p) {
		t.Fatalf("round trip 4-byte: %v vs %v", back, p)
	}
}

func TestASPathWire2ByteSubstitutesASTrans(t *testing.T) {
	p := NewASPath(3356, 196615, 8359)
	wire := p.appendWire(nil, false)
	back, err := decodeASPath(wire, false)
	if err != nil {
		t.Fatal(err)
	}
	flat := back.Flatten()
	if flat[1] != ASTrans {
		t.Fatalf("32-bit ASN not replaced by AS_TRANS: %v", flat)
	}
}

func TestDecodeASPathErrors(t *testing.T) {
	if _, err := decodeASPath([]byte{2}, true); err == nil {
		t.Fatal("truncated header must error")
	}
	if _, err := decodeASPath([]byte{9, 1, 0, 0, 0, 1}, true); err == nil {
		t.Fatal("unknown segment type must error")
	}
	if _, err := decodeASPath([]byte{2, 2, 0, 0, 0, 1}, true); err == nil {
		t.Fatal("short segment must error")
	}
}

func TestASPathWireRoundTripProperty(t *testing.T) {
	f := func(raw []uint32, setMask uint8) bool {
		if len(raw) == 0 {
			return true
		}
		// Build a path of 1-4 segments from raw values.
		var p ASPath
		segLen := len(raw)/2 + 1
		for i := 0; i < len(raw); i += segLen {
			end := i + segLen
			if end > len(raw) {
				end = len(raw)
			}
			asns := make([]ASN, 0, end-i)
			for _, v := range raw[i:end] {
				asns = append(asns, ASN(v))
			}
			p = append(p, PathSegment{Set: setMask&(1<<(uint(i)%8)) != 0, ASNs: asns})
		}
		wire := p.appendWire(nil, true)
		back, err := decodeASPath(wire, true)
		if err != nil {
			return false
		}
		return back.Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestASPathCloneIndependence(t *testing.T) {
	p := NewASPath(1, 2, 3)
	c := p.Clone()
	c[0].ASNs[0] = 99
	if p[0].ASNs[0] != 1 {
		t.Fatal("Clone aliases segment storage")
	}
}
