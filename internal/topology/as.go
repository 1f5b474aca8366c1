// Package topology builds the synthetic AS-level Internet the experiments
// run on: a tiered transit hierarchy, bilateral peering, IXPs with route
// servers (sized after Table 2 of the paper), per-member export policies
// (the MLP ground truth), prefix origination, and the vantage points
// (collector feeders, looking glasses) that the measurement pipeline
// observes the system through.
//
// Everything is generated deterministically from a seed, so experiments
// are exactly reproducible.
package topology

import (
	"sort"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
	"mlpeering/internal/peeringdb"
)

// Tier classifies an AS's position in the transit hierarchy.
type Tier int

// Tiers.
const (
	Tier1    Tier = 1 // transit-free clique
	Tier2    Tier = 2 // regional / national transit
	TierStub Tier = 3 // no customers of their own (mostly)
)

// AS is one autonomous system with its business relationships and
// behavioural flags.
type AS struct {
	ASN    bgp.ASN
	Name   string
	Tier   Tier
	Region ixp.Region

	// Business relationships, stored as sorted ASN slices.
	Providers []bgp.ASN
	Customers []bgp.ASN
	Peers     []bgp.ASN // bilateral (private or IXP) p2p, NOT route-server MLP
	Siblings  []bgp.ASN

	// Prefixes originated by this AS.
	Prefixes []bgp.Prefix

	// Policy is the network's actual peering inclination; what it
	// self-reports in PeeringDB may differ (see Registered).
	Policy peeringdb.Policy
	// Scope is the network's geographic footprint.
	Scope peeringdb.Scope
	// Registered reports whether the AS has a PeeringDB record at all.
	Registered bool

	// Content marks large content networks (the Google/Akamai analogs
	// of §5.5): attractive peers that many networks reach over private
	// interconnects and therefore block at route servers.
	Content bool

	// StripsCommunities: the AS removes BGP communities when exporting
	// routes, breaking community transitivity beyond this hop.
	StripsCommunities bool

	// PrefersBilateral: assigns higher local preference to bilateral
	// peers than to route-server peers, hiding RS paths from best-path
	// looking glasses (§5.1, Fig. 8).
	PrefersBilateral bool

	// OmitsDefaultALL: the operator relies on the route server's
	// default instead of tagging the ALL community explicitly. For
	// standard-scheme IXPs this leaves only 0:peer EXCLUDE values on
	// the route, the ambiguous case of §4.2 that requires
	// EXCLUDE-combination disambiguation.
	OmitsDefaultALL bool
}

// HasPeer reports whether b is a bilateral peer of a.
func (a *AS) HasPeer(b bgp.ASN) bool { return containsASN(a.Peers, b) }

// HasProvider reports whether b is a provider of a.
func (a *AS) HasProvider(b bgp.ASN) bool { return containsASN(a.Providers, b) }

// HasCustomer reports whether b is a customer of a.
func (a *AS) HasCustomer(b bgp.ASN) bool { return containsASN(a.Customers, b) }

func containsASN(sorted []bgp.ASN, x bgp.ASN) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= x })
	return i < len(sorted) && sorted[i] == x
}

func removeASN(sorted []bgp.ASN, x bgp.ASN) []bgp.ASN {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= x })
	if i >= len(sorted) || sorted[i] != x {
		return sorted
	}
	return append(sorted[:i], sorted[i+1:]...)
}

func insertASN(sorted []bgp.ASN, x bgp.ASN) []bgp.ASN {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= x })
	if i < len(sorted) && sorted[i] == x {
		return sorted
	}
	sorted = append(sorted, 0)
	copy(sorted[i+1:], sorted[i:])
	sorted[i] = x
	return sorted
}

// Link is an undirected AS adjacency with its relationship type, the
// unit in which the paper counts its results.
type Link struct {
	A, B bgp.ASN // A < B always
	Rel  Rel
}

// Rel is a business relationship type.
type Rel int

// Relationship types.
const (
	RelC2P Rel = iota // A is customer of B
	RelP2C            // A is provider of B
	RelP2P            // bilateral peering
	RelMLP            // multilateral (route server) peering
	RelSibling
)

// String implements fmt.Stringer.
func (r Rel) String() string {
	switch r {
	case RelC2P:
		return "c2p"
	case RelP2C:
		return "p2c"
	case RelP2P:
		return "p2p"
	case RelMLP:
		return "mlp"
	case RelSibling:
		return "sibling"
	default:
		return "?"
	}
}

// LinkKey and MakeLinkKey forward to bgp, where the AS pair lives.
// bench/ is their only user; they go when it names the bgp ones.
type LinkKey = bgp.LinkKey

// MakeLinkKey forwards to bgp.MakeLinkKey.
func MakeLinkKey(a, b bgp.ASN) LinkKey { return bgp.MakeLinkKey(a, b) }
