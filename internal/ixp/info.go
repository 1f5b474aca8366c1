package ixp

import (
	"net/netip"
	"slices"

	"mlpeering/internal/bgp"
)

// Region is a coarse geographic region, used for IXP placement, member
// affinity and the geographic-scope analysis of §5.5.
type Region int

// Regions. The paper's IXPs are European; the estimate of §5.7 adds
// other continents.
const (
	RegionWestEU Region = iota
	RegionEastEU
	RegionNorthEU
	RegionSouthEU
	RegionNorthAmerica
	RegionAsiaPacific
	RegionLatinAmerica
	RegionAfrica
	numRegions
)

// NumRegions is the number of distinct regions.
const NumRegions = int(numRegions)

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case RegionWestEU:
		return "eu-west"
	case RegionEastEU:
		return "eu-east"
	case RegionNorthEU:
		return "eu-north"
	case RegionSouthEU:
		return "eu-south"
	case RegionNorthAmerica:
		return "na"
	case RegionAsiaPacific:
		return "apac"
	case RegionLatinAmerica:
		return "latam"
	case RegionAfrica:
		return "africa"
	default:
		return "unknown"
	}
}

// IsEurope reports whether the region is one of the European ones.
func (r Region) IsEurope() bool { return r <= RegionSouthEU }

// Info describes one IXP: identity, membership, route server
// configuration and the data sources available for it.
type Info struct {
	Name   string
	Region Region
	Scheme Scheme

	// Members lists every AS present at the IXP; RSMembers is the
	// subset connected to the route server(s).
	Members   []bgp.ASN
	RSMembers []bgp.ASN

	// HasLG reports whether the IXP operates a public looking glass
	// with a view of its route server (the "LG" column of Table 2).
	HasLG bool

	// PublishesMemberList reports whether connectivity data (the RS
	// member list) is available from the IXP website or an AS-SET.
	// LINX is the paper's example of an IXP where it is not.
	PublishesMemberList bool

	// StripsCommunities models Netnod-style route servers that remove
	// all community values before reflecting paths (§5.8): such IXPs
	// defeat the inference entirely.
	StripsCommunities bool

	// Transparent reports whether the route server keeps itself out of
	// the AS path (the common case; the paper found 3 LGs where the RS
	// ASN was visible).
	Transparent bool

	// FlatFee reports whether the IXP charges a flat port fee; pricing
	// drives peering density in the §5.7 estimate.
	FlatFee bool

	// MemberAddrs assigns each member its address on the IXP peering
	// LAN; looking-glass commands reference members by these.
	MemberAddrs map[bgp.ASN]netip.Addr

	// RSAddr is the route server's own LAN address.
	RSAddr netip.Addr
}

// MemberAddr returns the LAN address of member asn.
func (x *Info) MemberAddr(asn bgp.ASN) (netip.Addr, bool) {
	a, ok := x.MemberAddrs[asn]
	return a, ok
}

// MemberByAddr finds the member holding a LAN address.
func (x *Info) MemberByAddr(addr netip.Addr) (bgp.ASN, bool) {
	for asn, a := range x.MemberAddrs {
		if a == addr {
			return asn, true
		}
	}
	return 0, false
}

// IsRSMember reports whether asn is connected to the route server.
func (x *Info) IsRSMember(asn bgp.ASN) bool { return slices.Contains(x.RSMembers, asn) }

// IsMember reports whether asn is present at the IXP at all.
func (x *Info) IsMember(asn bgp.ASN) bool { return slices.Contains(x.Members, asn) }

// SortedRSMembers returns the RS member list in ascending ASN order.
func (x *Info) SortedRSMembers() []bgp.ASN {
	out := append([]bgp.ASN(nil), x.RSMembers...)
	slices.Sort(out)
	return out
}

// SortedMembers returns the full member list in ascending ASN order.
func (x *Info) SortedMembers() []bgp.ASN {
	out := append([]bgp.ASN(nil), x.Members...)
	slices.Sort(out)
	return out
}
