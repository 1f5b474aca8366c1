package bgp

import (
	"fmt"
	"net/netip"
)

// Path attribute type codes (RFC 4271, RFC 1997, RFC 6793).
const (
	AttrOrigin          = 1
	AttrASPath          = 2
	AttrNextHop         = 3
	AttrMED             = 4
	AttrLocalPref       = 5
	AttrAtomicAggregate = 6
	AttrAggregator      = 7
	AttrCommunities     = 8
	AttrAS4Path         = 17
	AttrAS4Aggregator   = 18
)

// Attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagPartial    = 0x20
	flagExtLen     = 0x10
)

// Origin attribute values.
const (
	OriginIGP        = 0
	OriginEGP        = 1
	OriginIncomplete = 2
)

// PathAttrs carries the path attributes of a route in decoded form.
// Unrecognized optional transitive attributes are preserved in Unknown
// so they survive re-serialization, as required of a transparent BGP
// speaker.
type PathAttrs struct {
	Origin      uint8
	ASPath      ASPath
	NextHop     netip.Addr
	MED         uint32
	HasMED      bool
	LocalPref   uint32
	HasLocPref  bool
	Atomic      bool
	Aggregator  *Aggregator
	Communities Communities
	Unknown     []RawAttr
}

// Aggregator is the AGGREGATOR attribute payload.
type Aggregator struct {
	ASN  ASN
	Addr netip.Addr
}

// RawAttr is an attribute this codec does not interpret.
type RawAttr struct {
	Flags byte
	Type  byte
	Data  []byte
}

// maxAttrLen is the largest attribute body the two-octet extended
// length field describes.
const maxAttrLen = 0xFFFF

// appendAttrHeader appends an attribute header; length must be at most
// maxAttrLen (AppendWire checks every variable length up front). The
// extended-length flag follows length whatever flags says: a decoded
// unknown attribute may carry it on a short body.
func appendAttrHeader(dst []byte, flags, typ byte, length int) []byte {
	flags &^= flagExtLen
	if length > 255 {
		return append(dst, flags|flagExtLen, typ, byte(length>>8), byte(length))
	}
	return append(dst, flags, typ, byte(length))
}

// AppendWire serializes the attributes in type order. as4 selects 4-byte
// AS path encoding (both speakers negotiated the AS4 capability). An
// attribute whose body the length field cannot describe — an AS_SET of
// more than 255 ASNs, or any body over 65,535 bytes — is an error, as
// is a value DecodeAttrs would reject (an ORIGIN over 2, an AGGREGATOR
// address that is not IPv4), and dst comes back unchanged.
func (a *PathAttrs) AppendWire(dst []byte, as4 bool) ([]byte, error) {
	if a.Origin > OriginIncomplete {
		return dst, fmt.Errorf("bgp: ORIGIN value %d", a.Origin)
	}
	if a.Aggregator != nil && !a.Aggregator.Addr.Is4() {
		return dst, fmt.Errorf("bgp: AGGREGATOR address %v is not IPv4", a.Aggregator.Addr)
	}
	pathLen, err := a.ASPath.wireLen(as4)
	if err != nil {
		return dst, err
	}
	if pathLen > maxAttrLen || 4*len(a.Communities) > maxAttrLen {
		return dst, fmt.Errorf("bgp: AS_PATH (%d bytes) or COMMUNITIES (%d bytes) exceeds the %d-byte attribute limit",
			pathLen, 4*len(a.Communities), maxAttrLen)
	}
	for _, u := range a.Unknown {
		if len(u.Data) > maxAttrLen {
			return dst, fmt.Errorf("bgp: attribute type %d of %d bytes exceeds the %d-byte limit", u.Type, len(u.Data), maxAttrLen)
		}
	}

	// ORIGIN (well-known mandatory)
	dst = appendAttrHeader(dst, flagTransitive, AttrOrigin, 1)
	dst = append(dst, a.Origin)

	// AS_PATH (well-known mandatory)
	dst = appendAttrHeader(dst, flagTransitive, AttrASPath, pathLen)
	dst = a.ASPath.appendWire(dst, as4)

	// NEXT_HOP (well-known mandatory for IPv4 unicast)
	if a.NextHop.IsValid() {
		nh := a.NextHop.AsSlice()
		dst = appendAttrHeader(dst, flagTransitive, AttrNextHop, len(nh))
		dst = append(dst, nh...)
	}

	if a.HasMED {
		dst = appendAttrHeader(dst, flagOptional, AttrMED, 4)
		dst = append(dst, byte(a.MED>>24), byte(a.MED>>16), byte(a.MED>>8), byte(a.MED))
	}
	if a.HasLocPref {
		dst = appendAttrHeader(dst, flagTransitive, AttrLocalPref, 4)
		dst = append(dst, byte(a.LocalPref>>24), byte(a.LocalPref>>16), byte(a.LocalPref>>8), byte(a.LocalPref))
	}
	if a.Atomic {
		dst = appendAttrHeader(dst, flagTransitive, AttrAtomicAggregate, 0)
	}
	if a.Aggregator != nil {
		addr := a.Aggregator.Addr.AsSlice()
		asnLen := 2
		if as4 {
			asnLen = 4
		}
		dst = appendAttrHeader(dst, flagOptional|flagTransitive, AttrAggregator, asnLen+len(addr))
		if as4 {
			dst = append(dst, byte(a.Aggregator.ASN>>24), byte(a.Aggregator.ASN>>16), byte(a.Aggregator.ASN>>8), byte(a.Aggregator.ASN))
		} else {
			asn := a.Aggregator.ASN
			if asn.Is32Bit() {
				asn = ASTrans
			}
			dst = append(dst, byte(asn>>8), byte(asn))
		}
		dst = append(dst, addr...)
	}
	if len(a.Communities) > 0 {
		dst = appendAttrHeader(dst, flagOptional|flagTransitive, AttrCommunities, 4*len(a.Communities))
		for _, c := range a.Communities {
			dst = append(dst, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
		}
	}
	for _, u := range a.Unknown {
		dst = appendAttrHeader(dst, u.Flags, u.Type, len(u.Data))
		dst = append(dst, u.Data...)
	}
	return dst, nil
}

// DecodeAttrs parses the path attributes section of an UPDATE.
func DecodeAttrs(b []byte, as4 bool) (*PathAttrs, error) {
	return DecodeAttrsArena(b, as4, nil)
}

// DecodeAttrsArena parses the path attributes section of an UPDATE,
// slab-allocating the result from arena when it is non-nil. Everything
// reachable from the returned attributes lives as long as the arena.
func DecodeAttrsArena(b []byte, as4 bool, arena *AttrArena) (*PathAttrs, error) {
	var attrs *PathAttrs
	if arena != nil {
		attrs = arena.newAttrs()
	} else {
		attrs = &PathAttrs{}
	}
	for len(b) > 0 {
		if len(b) < 3 {
			return nil, fmt.Errorf("bgp: truncated attribute header")
		}
		flags, typ := b[0], b[1]
		var length int
		var hdr int
		if flags&flagExtLen != 0 {
			if len(b) < 4 {
				return nil, fmt.Errorf("bgp: truncated extended-length attribute header")
			}
			length = int(b[2])<<8 | int(b[3])
			hdr = 4
		} else {
			length = int(b[2])
			hdr = 3
		}
		if len(b) < hdr+length {
			return nil, fmt.Errorf("bgp: attribute %d: need %d bytes, have %d", typ, length, len(b)-hdr)
		}
		body := b[hdr : hdr+length]
		b = b[hdr+length:]

		switch typ {
		case AttrOrigin:
			if length != 1 {
				return nil, fmt.Errorf("bgp: ORIGIN length %d", length)
			}
			if body[0] > OriginIncomplete {
				return nil, fmt.Errorf("bgp: ORIGIN value %d", body[0])
			}
			attrs.Origin = body[0]
		case AttrASPath:
			p, err := decodeASPathArena(body, as4, arena)
			if err != nil {
				return nil, err
			}
			attrs.ASPath = p
		case AttrAS4Path:
			// When as4 is negotiated AS4_PATH should not appear; when it
			// does (old speaker in the middle) it overrides AS_PATH per
			// RFC 6793 reconstruction. We decode it as a 4-byte path.
			p, err := decodeASPath(body, true)
			if err != nil {
				return nil, err
			}
			attrs.ASPath = reconcileAS4Path(attrs.ASPath, p)
		case AttrNextHop:
			addr, ok := netip.AddrFromSlice(body)
			if !ok {
				return nil, fmt.Errorf("bgp: NEXT_HOP length %d", length)
			}
			attrs.NextHop = addr
		case AttrMED:
			if length != 4 {
				return nil, fmt.Errorf("bgp: MED length %d", length)
			}
			attrs.MED = be32(body)
			attrs.HasMED = true
		case AttrLocalPref:
			if length != 4 {
				return nil, fmt.Errorf("bgp: LOCAL_PREF length %d", length)
			}
			attrs.LocalPref = be32(body)
			attrs.HasLocPref = true
		case AttrAtomicAggregate:
			attrs.Atomic = true
		case AttrAggregator:
			agg, err := decodeAggregator(body, as4)
			if err != nil {
				return nil, err
			}
			attrs.Aggregator = agg
		case AttrCommunities:
			if length%4 != 0 {
				return nil, fmt.Errorf("bgp: COMMUNITIES length %d not multiple of 4", length)
			}
			var cs Communities
			if arena != nil {
				cs = arena.commSlice(length / 4)
			} else {
				cs = make(Communities, 0, length/4)
			}
			for i := 0; i < length; i += 4 {
				cs = append(cs, Community(be32(body[i:])))
			}
			attrs.Communities = cs
		default:
			attrs.Unknown = append(attrs.Unknown, RawAttr{
				Flags: flags, Type: typ, Data: append([]byte(nil), body...),
			})
		}
	}
	return attrs, nil
}

func decodeAggregator(body []byte, as4 bool) (*Aggregator, error) {
	asnLen := 2
	if as4 {
		asnLen = 4
	}
	if len(body) != asnLen+4 {
		return nil, fmt.Errorf("bgp: AGGREGATOR length %d", len(body))
	}
	var asn ASN
	if as4 {
		asn = ASN(be32(body))
	} else {
		asn = ASN(uint16(body[0])<<8 | uint16(body[1]))
	}
	addr, _ := netip.AddrFromSlice(body[asnLen:])
	return &Aggregator{ASN: asn, Addr: addr}, nil
}

// reconcileAS4Path merges AS_PATH (possibly containing AS_TRANS) with
// AS4_PATH per RFC 6793 §4.2.3: if AS_PATH is at least as long as
// AS4_PATH, the leading excess of AS_PATH is prepended to AS4_PATH.
func reconcileAS4Path(asPath, as4Path ASPath) ASPath {
	if len(asPath) == 0 {
		return as4Path
	}
	n2, n4 := asPath.Len(), as4Path.Len()
	if n4 > n2 {
		return asPath // AS4_PATH inconsistent: ignore it
	}
	excess := n2 - n4
	flat := asPath.Flatten()
	if excess > len(flat) {
		excess = len(flat)
	}
	head := flat[:excess]
	out := ASPath{}
	if len(head) > 0 {
		out = append(out, PathSegment{ASNs: append([]ASN(nil), head...)})
	}
	return append(out, as4Path.Clone()...)
}

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
