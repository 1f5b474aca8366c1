// Package bgp provides the core BGP data model used throughout the
// repository: autonomous system numbers, IP prefixes, BGP communities,
// path attributes and the RFC 4271 wire codec for BGP messages.
//
// The package is self-contained (standard library only) and is the
// foundation for the MRT archive codec (internal/mrt), route
// propagation (internal/propagate) and ultimately the multilateral
// peering inference algorithm (internal/core).
package bgp

import (
	"fmt"
	"strconv"
)

// ASN is a 32-bit autonomous system number (RFC 6793).
type ASN uint32

// Well-known ASN boundaries.
const (
	// ASTrans is the reserved 16-bit placeholder for 32-bit ASNs
	// when speaking to 2-byte-only peers (RFC 6793).
	ASTrans ASN = 23456

	// FirstPrivate16 .. LastPrivate16 is the 16-bit private use range
	// (RFC 6996). IXP operators map 32-bit member ASNs into this range
	// so they can be encoded in the 16-bit field of a standard community.
	FirstPrivate16 ASN = 64512
	LastPrivate16  ASN = 65534

	// FirstReserved32 .. LastReserved32 covers the block the paper
	// filters out of AS paths (63488-131071): documentation, private
	// 32-bit and reserved ASNs that must not appear in public routing.
	FirstReserved32 ASN = 63488
	LastReserved32  ASN = 131071

	// FirstPrivate32 .. LastPrivate32 is the 32-bit private use range
	// (RFC 6996).
	FirstPrivate32 ASN = 4200000000
	LastPrivate32  ASN = 4294967294
)

// String returns the decimal ("asplain") representation.
func (a ASN) String() string { return strconv.FormatUint(uint64(a), 10) }

// IsPrivate reports whether the ASN falls in a private-use range.
func (a ASN) IsPrivate() bool {
	return (a >= FirstPrivate16 && a <= LastPrivate16) ||
		(a >= FirstPrivate32 && a <= LastPrivate32)
}

// IsReserved reports whether the ASN should never appear in a public AS
// path: zero, AS_TRANS, or the 63488-131071 block the paper filters.
func (a ASN) IsReserved() bool {
	return a == 0 || a == ASTrans ||
		(a >= FirstReserved32 && a <= LastReserved32) ||
		a == 4294967295
}

// Routable reports whether the ASN may legitimately appear in a public
// AS path: not reserved and not private.
func (a ASN) Routable() bool { return !a.IsReserved() && !a.IsPrivate() }

// Is32Bit reports whether the ASN does not fit in 16 bits and therefore
// cannot be encoded directly in the low half of a standard community.
func (a ASN) Is32Bit() bool { return a > 0xFFFF }

// ParseASN parses a decimal ASN, accepting an optional "AS" prefix
// ("6695" and "AS6695" are equivalent).
func ParseASN(s string) (ASN, error) {
	if len(s) > 2 && (s[0] == 'A' || s[0] == 'a') && (s[1] == 'S' || s[1] == 's') {
		s = s[2:]
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bgp: invalid ASN %q: %w", s, err)
	}
	return ASN(v), nil
}

// ASNMapper maps 32-bit member ASNs to 16-bit private ASNs so that they
// can be referenced by the peer-asn half of a route server community.
// Many IXP operators maintain exactly this table (paper §3).
//
// The zero value is ready to use. ASNMapper is not safe for concurrent
// mutation; route servers build the table once at configuration time.
type ASNMapper struct {
	fwd  map[ASN]ASN // real 32-bit ASN -> private 16-bit alias
	rev  map[ASN]ASN // alias -> real
	next ASN
}

// NewASNMapper returns a mapper allocating aliases from the 16-bit
// private range starting at FirstPrivate16.
func NewASNMapper() *ASNMapper {
	return &ASNMapper{
		fwd:  make(map[ASN]ASN),
		rev:  make(map[ASN]ASN),
		next: FirstPrivate16,
	}
}

// Alias returns the 16-bit alias for asn, allocating one if necessary.
// ASNs that already fit in 16 bits are returned unchanged and no mapping
// is recorded for them.
func (m *ASNMapper) Alias(asn ASN) (ASN, error) {
	if !asn.Is32Bit() {
		return asn, nil
	}
	if a, ok := m.fwd[asn]; ok {
		return a, nil
	}
	for m.next <= LastPrivate16 {
		a := m.next
		m.next++
		if _, taken := m.rev[a]; taken {
			continue
		}
		m.fwd[asn] = a
		m.rev[a] = asn
		return a, nil
	}
	return 0, fmt.Errorf("bgp: 16-bit private ASN space exhausted mapping %s", asn)
}

// Resolve maps a value found in the peer-asn half of a community back to
// the real ASN. Values that are not aliases resolve to themselves.
func (m *ASNMapper) Resolve(alias ASN) ASN {
	if real, ok := m.rev[alias]; ok {
		return real
	}
	return alias
}

// Len returns the number of 32-bit ASNs currently aliased.
func (m *ASNMapper) Len() int { return len(m.fwd) }
