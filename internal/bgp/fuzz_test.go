package bgp

import (
	"bytes"
	"net/netip"
	"slices"
	"testing"
)

// FuzzDecode: whatever bytes arrive, Decode and DecodeAttrs return a
// value or an error, in both AS-number widths — they never panic.
// testdata/fuzz/FuzzDecode holds a valid UPDATE message and a valid
// attribute section to mutate from.
func FuzzDecode(f *testing.F) {
	u := &Update{NLRI: []Prefix{MustPrefix("203.0.113.0/24")}, Withdrawn: []Prefix{MustPrefix("198.51.100.0/24")}, Attrs: testAttrs()}
	msg, err := Encode(u)
	if err != nil {
		f.Fatal(err)
	}
	attrs, err := testAttrs().AppendWire(nil, true)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(msg)
	f.Add(attrs)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, as4 := range []bool{true, false} {
			if m, err := Decode(data, as4); err == nil && m == nil {
				t.Fatal("nil message without an error")
			}
			if a, err := DecodeAttrs(data, as4); err == nil && a == nil {
				t.Fatal("nil attributes without an error")
			}
		}
	})
}

// FuzzASPathWire: a path parsed by ParseASPath from the text form
// ASPath.String prints either fails to encode or decodes back to the
// same hops, in both AS-number widths (the 2-octet form carries
// AS_TRANS for every 32-bit ASN). The seed corpus in testdata/fuzz/FuzzASPathWire includes a 300-hop sequence,
// one segment's worth and more.
func FuzzASPathWire(f *testing.F) {
	f.Add("3356 6695 8359")
	f.Add("3356 {64512,70000} 196615")
	f.Fuzz(func(t *testing.T, text string) {
		p, err := ParseASPath(text)
		if err != nil {
			return
		}
		for _, as4 := range []bool{true, false} {
			wire, err := (&PathAttrs{ASPath: p}).AppendWire(nil, as4)
			if err != nil {
				continue
			}
			out, err := DecodeAttrs(wire, as4)
			if err != nil {
				t.Fatalf("as4=%v: a %d-hop path encoded but does not decode: %v", as4, len(p.Flatten()), err)
			}
			want := p.Flatten()
			if !as4 {
				for i, a := range want {
					if a.Is32Bit() {
						want[i] = ASTrans
					}
				}
			}
			if got := out.ASPath.Flatten(); !slices.Equal(got, want) {
				t.Fatalf("as4=%v: %d hops decoded, want %d", as4, len(got), len(want))
			}
		}
	})
}

// fuzzReader hands out fuzz bytes in order, then zeros once they run
// out, so short inputs still build large updates.
type fuzzReader []byte

func (r *fuzzReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

func (r *fuzzReader) u32() uint32 {
	return uint32(r.byte())<<24 | uint32(r.byte())<<16 | uint32(r.byte())<<8 | uint32(r.byte())
}

func (r *fuzzReader) addr4() netip.Addr {
	return netip.AddrFrom4([4]byte{r.byte(), r.byte(), r.byte(), r.byte()})
}

func (r *fuzzReader) prefixes(n int) []Prefix {
	out := make([]Prefix, n)
	for i := range out {
		out[i] = PrefixFrom(r.addr4(), 32-int(r.byte())%33)
	}
	return out
}

// fuzzUpdate builds an UPDATE from fuzz bytes: IPv4 withdrawn routes
// and NLRI (plus one IPv6 route on request) and, on request, every
// modeled path attribute, including AS_PATH segments of up to 510 ASNs,
// up to 16,320 communities and unknown attributes of up to 65,535 bytes
// with arbitrary flags. The shape (flags, counts and lengths) comes
// first and the values after it, so a short input can ask for a large
// update.
func fuzzUpdate(data []byte) *Update {
	r := fuzzReader(data)
	flags := r.byte()
	nWithdrawn, nNLRI := 4*int(r.byte()), 4*int(r.byte())
	if flags&0x01 == 0 {
		u := &Update{Withdrawn: r.prefixes(nWithdrawn), NLRI: r.prefixes(nNLRI)}
		if flags&0x80 != 0 {
			u.NLRI = append(u.NLRI, MustPrefix("2001:db8::/32"))
		}
		return u
	}
	a := &PathAttrs{Origin: r.byte()}
	a.ASPath = make(ASPath, r.byte()%4)
	for i := range a.ASPath {
		a.ASPath[i] = PathSegment{Set: r.byte()&1 == 1, ASNs: make([]ASN, int(r.byte())*(1+int(flags>>1&1)))}
	}
	a.Communities = make(Communities, 64*int(r.byte()))
	a.Unknown = make([]RawAttr, r.byte()%3)
	for i := range a.Unknown {
		raw := RawAttr{Flags: r.byte(), Type: r.byte(), Data: make([]byte, int(r.byte())<<8|int(r.byte()))}
		switch raw.Type {
		case AttrOrigin, AttrASPath, AttrNextHop, AttrMED, AttrLocalPref, AttrAtomicAggregate,
			AttrAggregator, AttrCommunities, AttrAS4Path, AttrAS4Aggregator:
			raw.Type += 100 // an interpreted type would not come back as Unknown
		}
		a.Unknown[i] = raw
	}

	u := &Update{Withdrawn: r.prefixes(nWithdrawn), NLRI: r.prefixes(nNLRI), Attrs: a}
	if flags&0x80 != 0 {
		u.NLRI = append(u.NLRI, MustPrefix("2001:db8::/32"))
	}
	for _, seg := range a.ASPath {
		for i := range seg.ASNs {
			seg.ASNs[i] = ASN(r.u32())
		}
	}
	if flags&0x04 != 0 {
		a.NextHop = r.addr4()
	}
	if flags&0x08 != 0 {
		a.MED, a.HasMED = r.u32(), true
	}
	if flags&0x10 != 0 {
		a.LocalPref, a.HasLocPref = r.u32(), true
	}
	a.Atomic = flags&0x20 != 0
	if flags&0x40 != 0 {
		a.Aggregator = &Aggregator{ASN: ASN(r.u32()), Addr: r.addr4()}
	}
	for i := range a.Communities {
		a.Communities[i] = Community(r.u32())
	}
	for _, raw := range a.Unknown {
		for i := range raw.Data {
			raw.Data[i] = r.byte()
		}
	}
	return u
}

// FuzzUpdateEncode: an UPDATE built from fuzz bytes either fails to
// encode or decodes back to the same update, in both AS-number widths
// (the 2-octet form carries AS_TRANS for every 32-bit ASN), and never
// panics. The seed corpus in testdata/fuzz/FuzzUpdateEncode adds a
// message past MaxMsgLen, an attribute section past 65,535 bytes, an
// out-of-range ORIGIN and an unknown attribute flagged extended-length
// on a short body.
func FuzzUpdateEncode(f *testing.F) {
	// Every attribute: an AS_SEQUENCE of 300 ASNs and an AS_SET of 6,
	// 64 communities and a 2-byte unknown attribute; four NLRI /16s.
	route := []byte{0x7F, 0, 1, 0, 2, 0, 150, 1, 3, 1, 1, 0xC0, 99, 0, 2,
		10, 1, 0, 0, 16, 10, 2, 0, 0, 16, 10, 3, 0, 0, 16, 10, 4, 0, 0, 16}
	f.Add(route, true)
	f.Add(route, false)
	f.Fuzz(func(t *testing.T, data []byte, as4 bool) {
		u := fuzzUpdate(data)
		encode := encodeUpdateAS2
		if as4 {
			encode = func(u *Update) ([]byte, error) { return Encode(u) }
		}
		wire, err := encode(u)
		if err != nil {
			return
		}
		m, err := Decode(wire, as4)
		if err != nil {
			t.Fatalf("as4=%v: a %d-byte message encoded but does not decode: %v", as4, len(wire), err)
		}
		got := m.(*Update)
		if !slices.Equal(got.Withdrawn, u.Withdrawn) || !slices.Equal(got.NLRI, u.NLRI) {
			t.Fatalf("as4=%v: routes: %d withdrawn and %d NLRI decoded, want %d and %d",
				as4, len(got.Withdrawn), len(got.NLRI), len(u.Withdrawn), len(u.NLRI))
		}
		if (got.Attrs == nil) != (u.Attrs == nil) {
			t.Fatalf("as4=%v: attributes decoded as %v, encoded %v", as4, got.Attrs, u.Attrs)
		}
		if u.Attrs != nil {
			diffWireAttrs(t, as4, got.Attrs, u.Attrs)
		}
	})
}

// diffWireAttrs fails t unless got is what want looks like after a trip
// over the wire: AS_SEQUENCEs split into runs of 255, 32-bit ASNs as
// AS_TRANS in the 2-octet form, and each unknown attribute's extended-
// length flag set exactly when its body needs it.
func diffWireAttrs(t *testing.T, as4 bool, got, want *PathAttrs) {
	t.Helper()
	wide := func(a ASN) ASN {
		if !as4 && a.Is32Bit() {
			return ASTrans
		}
		return a
	}
	var path ASPath
	for _, seg := range want.ASPath {
		asns := make([]ASN, len(seg.ASNs))
		for i, a := range seg.ASNs {
			asns[i] = wide(a)
		}
		for {
			run := asns[:min(len(asns), maxSegLen)]
			asns = asns[len(run):]
			path = append(path, PathSegment{Set: seg.Set, ASNs: run})
			if len(asns) == 0 {
				break
			}
		}
	}
	if !got.ASPath.Equal(path) {
		t.Fatalf("as4=%v: AS_PATH decoded as %d segments, %d hops; want %d segments, %d hops",
			as4, len(got.ASPath), len(got.ASPath.Flatten()), len(path), len(path.Flatten()))
	}
	if got.Origin != want.Origin || got.NextHop != want.NextHop || got.MED != want.MED || got.HasMED != want.HasMED ||
		got.LocalPref != want.LocalPref || got.HasLocPref != want.HasLocPref || got.Atomic != want.Atomic {
		t.Fatalf("as4=%v: scalar attributes decoded as %+v, want %+v", as4, got, want)
	}
	if (got.Aggregator == nil) != (want.Aggregator == nil) ||
		got.Aggregator != nil && (got.Aggregator.ASN != wide(want.Aggregator.ASN) || got.Aggregator.Addr != want.Aggregator.Addr) {
		t.Fatalf("as4=%v: AGGREGATOR decoded as %+v, want %+v", as4, got.Aggregator, want.Aggregator)
	}
	if !got.Communities.Equal(want.Communities) {
		t.Fatalf("as4=%v: %d communities decoded, want %d", as4, len(got.Communities), len(want.Communities))
	}
	if len(got.Unknown) != len(want.Unknown) {
		t.Fatalf("as4=%v: %d unknown attributes decoded, want %d", as4, len(got.Unknown), len(want.Unknown))
	}
	for i, w := range want.Unknown {
		flags := w.Flags &^ flagExtLen
		if len(w.Data) > 255 {
			flags |= flagExtLen
		}
		g := got.Unknown[i]
		if g.Flags != flags || g.Type != w.Type || !bytes.Equal(g.Data, w.Data) {
			t.Fatalf("as4=%v: unknown attribute %d decoded as flags %#x type %d, %d bytes; want %#x, %d, %d bytes",
				as4, i, g.Flags, g.Type, len(g.Data), flags, w.Type, len(w.Data))
		}
	}
}

// FuzzParseCommunities: a community list from looking-glass text parses
// or errors without a panic, and what parses reads back the same after
// Communities.String, the form the LG server prints. The seed corpus in
// testdata/fuzz/FuzzParseCommunities holds the forms the parser must
// accept (well-known names in any case, "local-as", leading zeros, the
// numeric spelling of a well-known value, tab and newline separators)
// and halves it must reject (signs, overflow, a missing colon).
func FuzzParseCommunities(f *testing.F) {
	f.Add("6695:6695 0:5410")
	f.Add("no-export 65000:9 65000:10")
	f.Fuzz(func(t *testing.T, text string) {
		cs, err := ParseCommunities(text)
		if err != nil {
			return
		}
		out := cs.String()
		back, err := ParseCommunities(out)
		if err != nil {
			t.Fatalf("%q parsed to %v, whose text %q does not parse: %v", text, cs, out, err)
		}
		if !slices.Equal(back, cs) {
			t.Fatalf("%q parsed to %v, which reads back as %v", text, cs, back)
		}
	})
}
