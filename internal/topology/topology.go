package topology

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
)

// FeedKind distinguishes how a collector feeder exports to the collector.
type FeedKind int

// Feed kinds: two-thirds of collector peers treat the collector like a
// peer and export only customer routes (§2.3); the rest give full tables.
const (
	FeedFull FeedKind = iota
	FeedCustomerOnly
)

// Feeder is an AS contributing a BGP view to a route collector.
type Feeder struct {
	ASN  bgp.ASN
	Kind FeedKind
}

// LGHost describes a looking glass: the AS operating it and its display
// behaviour (§5.1 distinguishes all-paths from best-path-only LGs).
type LGHost struct {
	ASN      bgp.ASN
	AllPaths bool // false: displays only the active (best) path
}

// RSPolicy is one RS member's route-server configuration at one IXP:
// its export filter toward the route server, its import filter (per the
// paper's §4.4 validation never more restrictive than the export), and
// the exact community set it attaches to its announcements (the wire
// encoding of Export under the IXP's scheme, minus an omitted default).
type RSPolicy struct {
	Export, Import ixp.ExportFilter
	Comms          bgp.Communities
}

// Topology is the full generated world: the ground truth every
// measurement and inference result is compared against.
type Topology struct {
	ASes  map[bgp.ASN]*AS
	Order []bgp.ASN // all ASNs in deterministic (ascending) order

	IXPs []*ixp.Info

	// RSPolicies is the MLP ground truth: per IXP name, per RS member,
	// the member's route-server policy. The mutation helpers keep each
	// IXP's keys equal to its RSMembers.
	RSPolicies map[string]map[bgp.ASN]RSPolicy

	// BilateralIXP holds bilateral peering links established across IXP
	// fabrics without the route server; these are invisible to the
	// paper's method by design (§5.8).
	BilateralIXP map[bgp.LinkKey][]string // link -> IXP names

	// Feeders are the collector vantage points.
	Feeders []Feeder

	// ValidationLGs are the third-party looking glasses used to
	// validate inferred links (70 in the paper).
	ValidationLGs []LGHost

	// MemberLGs maps IXP name to third-party member LGs that carry a
	// route server feed, used for IXPs without their own LG.
	MemberLGs map[string][]LGHost

	// PrefixRegions records the geographic region each originated
	// prefix serves; the geolocation database is generated from it.
	PrefixRegions map[bgp.Prefix]ixp.Region

	// RemoteMembers records, per IXP name, the members connected
	// remotely through a reseller rather than a local port (the
	// remote-peering scenario's ground truth; nil for worlds without
	// remote peering).
	RemoteMembers map[string][]bgp.ASN
}

// IXPByName returns the IXP with the given name, or nil.
func (t *Topology) IXPByName(name string) *ixp.Info {
	for _, x := range t.IXPs {
		if x.Name == name {
			return x
		}
	}
	return nil
}

// Policy returns member's route-server policy at the named IXP. The
// boolean is false if the member is not an RS member there.
func (t *Topology) Policy(ixpName string, member bgp.ASN) (RSPolicy, bool) {
	p, ok := t.RSPolicies[ixpName][member]
	return p, ok
}

// RouteFlows reports whether routes announced by from reach to over the
// named route server: from's export filter allows to AND to's import
// filter accepts from.
func (t *Topology) RouteFlows(ixpName string, from, to bgp.ASN) bool {
	if from == to {
		return false
	}
	pf, ok := t.Policy(ixpName, from)
	if !ok {
		return false
	}
	pt, ok := t.Policy(ixpName, to)
	return ok && pf.Export.Allows(to) && pt.Import.Allows(from)
}

// GroundTruthMLPLinks returns the set of true route-server peering
// links at the named IXP: pairs with route flow in at least one
// direction. Links where flow exists in only one direction are the
// asymmetric peerings the paper's reciprocity assumption knowingly
// misses.
func (t *Topology) GroundTruthMLPLinks(ixpName string) map[bgp.LinkKey]bool {
	x := t.IXPByName(ixpName)
	if x == nil {
		return nil
	}
	links := make(map[bgp.LinkKey]bool)
	members := x.SortedRSMembers()
	for i, a := range members {
		for _, b := range members[i+1:] {
			if t.RouteFlows(ixpName, a, b) || t.RouteFlows(ixpName, b, a) {
				links[bgp.MakeLinkKey(a, b)] = true
			}
		}
	}
	return links
}

// GroundTruthReciprocalLinks returns only the symmetric subset: pairs
// where routes flow in both directions. This is what the inference
// algorithm can recover at best.
func (t *Topology) GroundTruthReciprocalLinks(ixpName string) map[bgp.LinkKey]bool {
	x := t.IXPByName(ixpName)
	if x == nil {
		return nil
	}
	return t.reciprocalLinks([]*ixp.Info{x})
}

// reciprocal is the pair rule of the truth mesh (§4.1 applied to the
// true filters): routes flow over the route server from member a, with
// policy p, to member b, with policy q, and from b to a.
func reciprocal(a bgp.ASN, p *RSPolicy, b bgp.ASN, q *RSPolicy) bool {
	return a != b &&
		p.Export.Allows(b) && q.Import.Allows(a) &&
		q.Export.Allows(a) && p.Import.Allows(b)
}

// reciprocalLinks returns every pair of RS members with RouteFlows in
// both directions at one of the given IXPs, as a set.
func (t *Topology) reciprocalLinks(ixps []*ixp.Info) map[bgp.LinkKey]bool {
	packed := t.appendReciprocal(nil, ixps)
	links := make(map[bgp.LinkKey]bool, len(packed))
	for _, k := range packed {
		links[unpackLinkKey(k)] = true
	}
	return links
}

// SortedGroundTruthReciprocalLinks returns the keys of
// AllGroundTruthReciprocalLinks ascending (bgp.CompareLinkKeys) from the
// same scan, without building the set: each IXP's scan is an ascending
// run of packed keys, and the runs are merged, a link reciprocal at
// several IXPs kept once.
func (t *Topology) SortedGroundTruthReciprocalLinks() []bgp.LinkKey {
	var packed []uint64
	heads := make([]int, len(t.IXPs))
	ends := make([]int, len(t.IXPs))
	for i := range t.IXPs {
		heads[i] = len(packed)
		packed = t.appendReciprocal(packed, t.IXPs[i:i+1])
		ends[i] = len(packed)
	}
	links := make([]bgp.LinkKey, 0, len(packed))
	var last uint64
	for {
		r := -1
		for i := range heads {
			if heads[i] < ends[i] && (r < 0 || packed[heads[i]] < packed[heads[r]]) {
				r = i
			}
		}
		if r < 0 {
			return links
		}
		k := packed[heads[r]]
		heads[r]++
		if len(links) == 0 || k != last {
			links = append(links, unpackLinkKey(k))
			last = k
		}
	}
}

// appendReciprocal is the one scan of the truth mesh: it appends to dst
// every reciprocal pair of RS members at each of ixps, packed as
// A<<32|B so that ascending packed keys are bgp.CompareLinkKeys order. It
// walks each IXP's members in ascending ASN order, so each IXP appends
// an ascending run. A pair reciprocal at several IXPs is appended once
// per IXP. Each member's record is looked up once instead of per
// ordered pair.
func (t *Topology) appendReciprocal(dst []uint64, ixps []*ixp.Info) []uint64 {
	type member struct {
		asn bgp.ASN
		pol RSPolicy
	}
	var ms []member
	for _, x := range ixps {
		ms = ms[:0]
		for _, m := range x.RSMembers {
			if p, ok := t.Policy(x.Name, m); ok {
				ms = append(ms, member{m, p})
			}
		}
		slices.SortFunc(ms, func(a, b member) int { return cmp.Compare(a.asn, b.asn) })
		for i := range ms {
			for j := i + 1; j < len(ms); j++ {
				if reciprocal(ms[i].asn, &ms[i].pol, ms[j].asn, &ms[j].pol) {
					dst = append(dst, uint64(ms[i].asn)<<32|uint64(ms[j].asn))
				}
			}
		}
	}
	return dst
}

func unpackLinkKey(k uint64) bgp.LinkKey { return bgp.LinkKey{A: bgp.ASN(k >> 32), B: bgp.ASN(k)} }

// IsReciprocalLink reports whether bgp.MakeLinkKey(a, b) is in
// AllGroundTruthReciprocalLinks: some IXP has both a and b as RS
// members whose filters let routes flow both ways. It costs a few
// record lookups per IXP, not a scan of the mesh, so a caller that knows
// which pairs a mutation can touch keeps the mesh current pair by pair.
func (t *Topology) IsReciprocalLink(a, b bgp.ASN) bool {
	for _, x := range t.IXPs {
		pols := t.RSPolicies[x.Name]
		pa, okA := pols[a]
		pb, okB := pols[b]
		if okA && okB && reciprocal(a, &pa, b, &pb) && x.IsRSMember(a) && x.IsRSMember(b) {
			return true
		}
	}
	return false
}

// AllGroundTruthMLPLinks unions GroundTruthMLPLinks over all IXPs.
func (t *Topology) AllGroundTruthMLPLinks() map[bgp.LinkKey]bool {
	links := make(map[bgp.LinkKey]bool)
	for _, x := range t.IXPs {
		for k := range t.GroundTruthMLPLinks(x.Name) {
			links[k] = true
		}
	}
	return links
}

// RelationshipOf returns the ground-truth relationship between a and b
// from a's perspective, and false if they are not adjacent.
func (t *Topology) RelationshipOf(a, b bgp.ASN) (Rel, bool) {
	as := t.ASes[a]
	if as == nil {
		return 0, false
	}
	switch {
	case as.HasProvider(b):
		return RelC2P, true
	case as.HasCustomer(b):
		return RelP2C, true
	case as.HasPeer(b):
		return RelP2P, true
	case containsASN(as.Siblings, b):
		return RelSibling, true
	}
	return 0, false
}

// TransitLinks returns all c2p links in the topology.
func (t *Topology) TransitLinks() []Link {
	var out []Link
	for _, asn := range t.Order {
		as := t.ASes[asn]
		for _, p := range as.Providers {
			out = append(out, Link{A: min(asn, p), B: max(asn, p), Rel: RelC2P})
		}
	}
	return dedupLinks(out)
}

// BilateralLinks returns all bilateral p2p links (private interconnects
// and IXP bilateral sessions).
func (t *Topology) BilateralLinks() []Link {
	var out []Link
	for _, asn := range t.Order {
		as := t.ASes[asn]
		for _, p := range as.Peers {
			if asn < p {
				out = append(out, Link{A: asn, B: p, Rel: RelP2P})
			}
		}
	}
	return out
}

// PrefixOwners maps every originated prefix to its origin AS.
func (t *Topology) PrefixOwners() map[bgp.Prefix]bgp.ASN {
	m := make(map[bgp.Prefix]bgp.ASN)
	for _, asn := range t.Order {
		for _, p := range t.ASes[asn].Prefixes {
			m[p] = asn
		}
	}
	return m
}

// Validate performs structural sanity checks on the topology.
// Builder.Finalize runs it on every world it builds and returns its
// error, so no generator, scenario or command ever holds a world that
// fails it.
func (t *Topology) Validate() error {
	for _, asn := range t.Order {
		as := t.ASes[asn]
		if as == nil {
			return fmt.Errorf("topology: ASN %s in order but missing record", asn)
		}
		for _, p := range as.Providers {
			pp := t.ASes[p]
			if pp == nil {
				return fmt.Errorf("topology: AS%s has unknown provider %s", asn, p)
			}
			if !pp.HasCustomer(asn) {
				return fmt.Errorf("topology: provider edge %s->%s not mirrored", asn, p)
			}
		}
		for _, p := range as.Peers {
			pp := t.ASes[p]
			if pp == nil || !pp.HasPeer(asn) {
				return fmt.Errorf("topology: peer edge %s--%s not mirrored", asn, p)
			}
		}
	}
	for _, x := range t.IXPs {
		for _, m := range x.RSMembers {
			if !x.IsMember(m) {
				return fmt.Errorf("topology: %s RS member %s not an IXP member", x.Name, m)
			}
			p, ok := t.Policy(x.Name, m)
			if !ok {
				return fmt.Errorf("topology: %s RS member %s missing route-server policy", x.Name, m)
			}
			// §4.4 invariant: import never more restrictive than export.
			for _, other := range x.RSMembers {
				if other == m {
					continue
				}
				if p.Export.Allows(other) && !p.Import.Allows(other) {
					return fmt.Errorf("topology: %s member %s import blocks %s but export allows it",
						x.Name, m, other)
				}
			}
		}
	}
	// Every record belongs to an RS member of a known IXP.
	for _, name := range slices.Sorted(maps.Keys(t.RSPolicies)) {
		x := t.IXPByName(name)
		for _, m := range slices.Sorted(maps.Keys(t.RSPolicies[name])) {
			switch {
			case x == nil:
				return fmt.Errorf("topology: route-server policy for %s under unknown IXP %s", m, name)
			case !x.IsRSMember(m):
				return fmt.Errorf("topology: %s route-server policy for %s, which is not an RS member", name, m)
			}
		}
	}
	return nil
}

// Stats summarizes the topology for logging and docs.
type Stats struct {
	ASes, Tier1s, Transits, Stubs int
	TransitLinks, BilateralLinks  int
	IXPs, IXPMembers, RSMembers   int
	Prefixes                      int
}

// Stats computes summary statistics.
func (t *Topology) Stats() Stats {
	s := Stats{ASes: len(t.Order), IXPs: len(t.IXPs)}
	for _, asn := range t.Order {
		as := t.ASes[asn]
		switch as.Tier {
		case Tier1:
			s.Tier1s++
		case Tier2:
			s.Transits++
		default:
			s.Stubs++
		}
		s.Prefixes += len(as.Prefixes)
	}
	s.TransitLinks = len(t.TransitLinks())
	s.BilateralLinks = len(t.BilateralLinks())
	memberSet := make(map[bgp.ASN]bool)
	rsSet := make(map[bgp.ASN]bool)
	for _, x := range t.IXPs {
		for _, m := range x.Members {
			memberSet[m] = true
		}
		for _, m := range x.RSMembers {
			rsSet[m] = true
		}
	}
	s.IXPMembers = len(memberSet)
	s.RSMembers = len(rsSet)
	return s
}

func dedupLinks(in []Link) []Link {
	sort.Slice(in, func(i, j int) bool {
		if in[i].A != in[j].A {
			return in[i].A < in[j].A
		}
		return in[i].B < in[j].B
	})
	out := in[:0]
	for i, l := range in {
		if i == 0 || l.A != in[i-1].A || l.B != in[i-1].B {
			out = append(out, l)
		}
	}
	return out
}
