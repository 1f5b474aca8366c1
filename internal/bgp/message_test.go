package bgp

import (
	"bytes"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func testAttrs() *PathAttrs {
	return &PathAttrs{
		Origin:      OriginIGP,
		ASPath:      NewASPath(6695, 196615, 8359),
		NextHop:     netip.MustParseAddr("80.81.192.1"),
		MED:         10,
		HasMED:      true,
		LocalPref:   200,
		HasLocPref:  true,
		Communities: Communities{MakeCommunity(6695, 6695), MakeCommunity(0, 5410)},
	}
}

func TestPrefixWireRoundTrip(t *testing.T) {
	for _, s := range []string{"0.0.0.0/0", "10.0.0.0/8", "193.0.10.0/24", "192.0.2.128/25", "198.51.100.77/32"} {
		p := MustPrefix(s)
		wire := p.AppendWire(nil)
		back, n, err := decodePrefix(wire, false)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if n != len(wire) || back != p {
			t.Fatalf("%s: round trip got %v (%d bytes)", s, back, n)
		}
	}
}

func TestPrefixWireRoundTripV6(t *testing.T) {
	p := MustPrefix("2001:db8::/32")
	wire := p.AppendWire(nil)
	back, _, err := decodePrefix(wire, true)
	if err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Fatalf("v6 round trip: %v", back)
	}
}

func TestDecodePrefixErrors(t *testing.T) {
	if _, _, err := decodePrefix(nil, false); err == nil {
		t.Fatal("empty must error")
	}
	if _, _, err := decodePrefix([]byte{33, 1, 2, 3, 4, 5}, false); err == nil {
		t.Fatal("/33 v4 must error")
	}
	if _, _, err := decodePrefix([]byte{24, 1, 2}, false); err == nil {
		t.Fatal("truncated body must error")
	}
}

func TestDecodePrefixesCanonicalizes(t *testing.T) {
	// /16 with nonzero trailing bits in the second byte is canonicalized.
	got, err := DecodePrefixes([]byte{12, 10, 0xFF}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].String() != "10.240.0.0/12" {
		t.Fatalf("canonicalized = %v", got[0])
	}
}

func TestComparePrefixes(t *testing.T) {
	a := MustPrefix("10.0.0.0/8")
	b := MustPrefix("10.0.0.0/16")
	c := MustPrefix("11.0.0.0/8")
	if ComparePrefixes(a, b) >= 0 || ComparePrefixes(b, a) <= 0 {
		t.Fatal("length ordering wrong")
	}
	if ComparePrefixes(a, c) >= 0 {
		t.Fatal("address ordering wrong")
	}
	if ComparePrefixes(a, a) != 0 {
		t.Fatal("self compare")
	}
}

func TestAttrsWireRoundTrip(t *testing.T) {
	in := testAttrs()
	in.Aggregator = &Aggregator{ASN: 196615, Addr: netip.MustParseAddr("192.0.2.1")}
	in.Atomic = true
	in.Unknown = []RawAttr{{Flags: flagOptional | flagTransitive, Type: 99, Data: []byte{1, 2, 3}}}

	wire, err := in.AppendWire(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeAttrs(wire, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.Origin != in.Origin || !out.ASPath.Equal(in.ASPath) || out.NextHop != in.NextHop {
		t.Fatalf("mismatch: %+v", out)
	}
	if !out.HasMED || out.MED != 10 || !out.HasLocPref || out.LocalPref != 200 || !out.Atomic {
		t.Fatalf("numeric attrs: %+v", out)
	}
	if out.Aggregator == nil || out.Aggregator.ASN != 196615 {
		t.Fatalf("aggregator: %+v", out.Aggregator)
	}
	if !out.Communities.Equal(in.Communities) {
		t.Fatalf("communities: %v", out.Communities)
	}
	if len(out.Unknown) != 1 || out.Unknown[0].Type != 99 || !bytes.Equal(out.Unknown[0].Data, []byte{1, 2, 3}) {
		t.Fatalf("unknown attr: %+v", out.Unknown)
	}
}

func TestAttrsExtendedLength(t *testing.T) {
	// A community list long enough to need the extended length bit.
	in := &PathAttrs{
		Origin:  OriginIGP,
		ASPath:  NewASPath(1),
		NextHop: netip.MustParseAddr("10.0.0.1"),
	}
	for i := 0; i < 100; i++ {
		in.Communities = append(in.Communities, MakeCommunity(6695, ASN(i)))
	}
	wire, err := in.AppendWire(nil, true)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeAttrs(wire, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Communities) != 100 {
		t.Fatalf("communities = %d", len(out.Communities))
	}
}

func TestDecodeAttrsErrors(t *testing.T) {
	cases := [][]byte{
		{flagTransitive},                                             // truncated header
		{flagTransitive, AttrOrigin, 2, 0, 0},                        // bad ORIGIN len
		{flagTransitive, AttrOrigin, 1, 9},                           // bad ORIGIN value
		{flagOptional, AttrMED, 3, 0, 0, 0},                          // bad MED len
		{flagTransitive, AttrLocalPref, 1, 0},                        // bad LOCAL_PREF len
		{flagOptional | flagTransitive, AttrCommunities, 3, 0, 0, 0}, // not %4
		{flagTransitive, AttrASPath, 1, 7},                           // truncated path
		{flagTransitive, AttrNextHop, 3, 1, 2, 3},                    // bad next hop
		{flagTransitive | flagExtLen, AttrOrigin},                    // truncated ext header
		{flagTransitive, AttrOrigin, 5, 0},                           // declared longer than body
	}
	for i, c := range cases {
		if _, err := DecodeAttrs(c, true); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReconcileAS4Path(t *testing.T) {
	// AS_PATH: 100 23456 23456; AS4_PATH: 196615 196616
	as2 := NewASPath(100, ASTrans, ASTrans)
	as4 := NewASPath(196615, 196616)
	got := reconcileAS4Path(as2, as4)
	flat := got.Flatten()
	want := []ASN{100, 196615, 196616}
	if len(flat) != 3 {
		t.Fatalf("reconciled = %v", flat)
	}
	for i := range want {
		if flat[i] != want[i] {
			t.Fatalf("reconciled = %v, want %v", flat, want)
		}
	}
	// Inconsistent longer AS4_PATH is ignored.
	got = reconcileAS4Path(NewASPath(1), NewASPath(2, 3))
	if f := got.Flatten(); len(f) != 1 || f[0] != 1 {
		t.Fatalf("inconsistent AS4_PATH: %v", f)
	}
}

func TestUpdateEncodeDecodeRoundTrip(t *testing.T) {
	u := &Update{
		Withdrawn: []Prefix{MustPrefix("203.0.113.0/24")},
		Attrs:     testAttrs(),
		NLRI:      []Prefix{MustPrefix("193.0.0.0/21"), MustPrefix("193.0.22.0/23")},
	}
	wire, err := Encode(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) < HeaderLen || wire[18] != MsgUpdate {
		t.Fatalf("header: % x", wire[:HeaderLen])
	}
	m, err := Decode(wire, true)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.(*Update)
	if !ok {
		t.Fatalf("decoded %T", m)
	}
	if len(got.Withdrawn) != 1 || got.Withdrawn[0] != u.Withdrawn[0] {
		t.Fatalf("withdrawn: %v", got.Withdrawn)
	}
	if len(got.NLRI) != 2 || got.NLRI[0] != u.NLRI[0] || got.NLRI[1] != u.NLRI[1] {
		t.Fatalf("nlri: %v", got.NLRI)
	}
	if !got.Attrs.ASPath.Equal(u.Attrs.ASPath) || !got.Attrs.Communities.Equal(u.Attrs.Communities) {
		t.Fatalf("attrs: %+v", got.Attrs)
	}
}

func TestUpdateRejectsV6WithoutMP(t *testing.T) {
	u := &Update{NLRI: []Prefix{MustPrefix("2001:db8::/32")}, Attrs: testAttrs()}
	if _, err := Encode(u); err == nil {
		t.Fatal("IPv6 NLRI must be rejected in plain UPDATE")
	}
	u2 := &Update{Withdrawn: []Prefix{MustPrefix("2001:db8::/32")}}
	if _, err := Encode(u2); err == nil {
		t.Fatal("IPv6 withdrawal must be rejected in plain UPDATE")
	}
}

func TestOpenRoundTrip(t *testing.T) {
	o := &Open{ASN: 196615, HoldTime: 90, RouterID: netip.MustParseAddr("198.51.100.7"), AS4: true}
	wire, err := Encode(o)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(wire, true)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*Open)
	if got.ASN != 196615 || !got.AS4 {
		t.Fatalf("AS4 OPEN: %+v", got)
	}
	if got.HoldTime != 90 || got.RouterID != o.RouterID || got.Version != 4 {
		t.Fatalf("OPEN fields: %+v", got)
	}

	// Without AS4 capability, the 32-bit ASN degrades to AS_TRANS.
	o2 := &Open{ASN: 196615, HoldTime: 180, RouterID: netip.MustParseAddr("10.0.0.1")}
	wire2, _ := Encode(o2)
	got2 := mustDecode(t, wire2).(*Open)
	if got2.ASN != ASTrans || got2.AS4 {
		t.Fatalf("legacy OPEN: %+v", got2)
	}
}

func TestKeepaliveNotification(t *testing.T) {
	wire, err := Encode(Keepalive{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mustDecode(t, wire).(Keepalive); !ok {
		t.Fatal("keepalive round trip")
	}

	n := &Notification{Code: 6, Subcode: 2, Data: []byte("bye")}
	wire, err = Encode(n)
	if err != nil {
		t.Fatal(err)
	}
	got := mustDecode(t, wire).(*Notification)
	if got.Code != 6 || got.Subcode != 2 || string(got.Data) != "bye" {
		t.Fatalf("notification: %+v", got)
	}
}

func mustDecode(t *testing.T, wire []byte) Message {
	t.Helper()
	m, err := Decode(wire, true)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, 5), true); err == nil {
		t.Fatal("short buffer")
	}
	bad := make([]byte, HeaderLen)
	if _, err := Decode(bad, true); err == nil {
		t.Fatal("bad marker")
	}
	good, _ := Encode(Keepalive{})
	tampered := append([]byte(nil), good...)
	tampered[17]++ // wrong length
	if _, err := Decode(tampered, true); err == nil {
		t.Fatal("length mismatch")
	}
	tampered2 := append([]byte(nil), good...)
	tampered2[18] = 77 // unknown type
	if _, err := Decode(tampered2, true); err == nil {
		t.Fatal("unknown type")
	}
}

func TestUpdateWireRoundTripProperty(t *testing.T) {
	f := func(asns []uint32, comms []uint32, seed uint32) bool {
		if len(asns) == 0 {
			asns = []uint32{1}
		}
		if len(asns) > 64 {
			asns = asns[:64]
		}
		if len(comms) > 64 {
			comms = comms[:64]
		}
		attrs := &PathAttrs{
			Origin:  uint8(seed % 3),
			NextHop: netip.AddrFrom4([4]byte{byte(seed), byte(seed >> 8), byte(seed >> 16), 1}),
		}
		for _, a := range asns {
			if len(attrs.ASPath) == 0 {
				attrs.ASPath = NewASPath(ASN(a))
			} else {
				attrs.ASPath = attrs.ASPath.Prepend(ASN(a))
			}
		}
		for _, c := range comms {
			attrs.Communities = append(attrs.Communities, Community(c))
		}
		u := &Update{
			Attrs: attrs,
			NLRI:  []Prefix{PrefixFrom(netip.AddrFrom4([4]byte{byte(seed >> 24), byte(seed >> 16), 0, 0}), int(seed%25))},
		}
		wire, err := Encode(u)
		if err != nil {
			return false
		}
		m, err := Decode(wire, true)
		if err != nil {
			return false
		}
		got := m.(*Update)
		if !got.Attrs.ASPath.Equal(attrs.ASPath) {
			return false
		}
		if len(got.Attrs.Communities) != len(attrs.Communities) {
			return false
		}
		for i := range attrs.Communities {
			if got.Attrs.Communities[i] != attrs.Communities[i] {
				return false
			}
		}
		return len(got.NLRI) == 1 && got.NLRI[0] == u.NLRI[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEncodeUpdateAS2ASTrans(t *testing.T) {
	u := &Update{
		Attrs: &PathAttrs{
			Origin:  OriginIGP,
			ASPath:  NewASPath(3356, 196615),
			NextHop: netip.MustParseAddr("10.0.0.1"),
		},
		NLRI: []Prefix{MustPrefix("10.2.0.0/16")},
	}
	wire, err := EncodeUpdateAS2(u)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(wire, false)
	if err != nil {
		t.Fatal(err)
	}
	flat := m.(*Update).Attrs.ASPath.Flatten()
	if flat[1] != ASTrans {
		t.Fatalf("expected AS_TRANS, got %v", flat)
	}
}

// TestAttrsWireLengthLimits pins the encoder at the edges of its one-
// and two-octet length fields: an AS_SEQUENCE longer than one segment
// holds goes out as several segments and decodes to the same hops; an
// AS_SET that long, and any attribute body over 65,535 bytes, is an
// encode error instead of a length that wraps and decodes as garbage.
func TestAttrsWireLengthLimits(t *testing.T) {
	hops := func(n int) []ASN {
		out := make([]ASN, n)
		for i := range out {
			out[i] = ASN(64512 + i%1000)
		}
		return out
	}
	longText := func(n int) ASPath {
		parts := make([]string, n)
		for i, a := range hops(n) {
			parts[i] = a.String()
		}
		p, err := ParseASPath(strings.Join(parts, " "))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	comms := func(n int) Communities {
		out := make(Communities, n)
		for i := range out {
			out[i] = MakeCommunity(6695, ASN(i))
		}
		return out
	}
	for _, c := range []struct {
		name     string
		attrs    PathAttrs
		segments int // decoded AS_PATH segments; 0 means an encode error
	}{
		{"sequence of 255", PathAttrs{ASPath: NewASPath(hops(255)...)}, 1},
		{"sequence of 300 from text", PathAttrs{ASPath: longText(300)}, 2},
		{"sequence of 510", PathAttrs{ASPath: NewASPath(hops(510)...)}, 2},
		{"sequence then set", PathAttrs{ASPath: ASPath{{ASNs: hops(256)}, {Set: true, ASNs: hops(3)}}}, 3},
		{"set of 255", PathAttrs{ASPath: ASPath{{Set: true, ASNs: hops(255)}}}, 1},
		{"set of 256", PathAttrs{ASPath: ASPath{{Set: true, ASNs: hops(256)}}}, 0},
		{"AS_PATH over 65,535 bytes", PathAttrs{ASPath: NewASPath(hops(16384)...)}, 0},
		{"16,383 communities", PathAttrs{ASPath: NewASPath(1), Communities: comms(16383)}, 1},
		{"16,384 communities", PathAttrs{ASPath: NewASPath(1), Communities: comms(16384)}, 0},
		{"unknown attribute over 65,535 bytes", PathAttrs{ASPath: NewASPath(1),
			Unknown: []RawAttr{{Flags: flagOptional | flagTransitive, Type: 99, Data: make([]byte, 65536)}}}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			prefix := []byte{0xAB}
			wire, err := c.attrs.AppendWire(prefix, true)
			if c.segments == 0 {
				if err == nil {
					t.Fatal("encoded without error")
				}
				if !bytes.Equal(wire, prefix) {
					t.Fatalf("a failed encode left %d bytes behind", len(wire)-len(prefix))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			out, err := DecodeAttrs(wire[len(prefix):], true)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.ASPath) != c.segments || !slices.Equal(out.ASPath.Flatten(), c.attrs.ASPath.Flatten()) {
				t.Fatalf("AS_PATH decoded as %d segments, %d hops; want %d segments, %d hops",
					len(out.ASPath), len(out.ASPath.Flatten()), c.segments, len(c.attrs.ASPath.Flatten()))
			}
			if !out.Communities.Equal(c.attrs.Communities) {
				t.Fatalf("communities: %d decoded, %d encoded", len(out.Communities), len(c.attrs.Communities))
			}
		})
	}
}
