package topology

import (
	"fmt"
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

// Topology is the full generated world: the ground truth every
// measurement and inference result is compared against.
//
// Builder-generated topologies are densely backed: every AS record
// lives in one slab ordered like Order, addressable by the small
// integer ids DenseIndex exposes, and the ASes map is a view into
// that slab. Hand-assembled topologies (tests) may populate only the
// map, in which case the dense accessors report absence.
type Topology struct {
	ASes  map[bgp.ASN]*AS
	Order []bgp.ASN // all ASNs in deterministic (ascending) order

	recs  []AS              // dense record slab, recs[i].ASN == Order[i]
	index map[bgp.ASN]int32 // ASN -> position in Order

	IXPs []*ixp.Info

	// ExportFilters is the MLP ground truth: per IXP name, per RS
	// member, the member's export policy toward the route server.
	ExportFilters map[string]map[bgp.ASN]ixp.ExportFilter

	// ImportFilters mirrors ExportFilters for the import direction.
	// Per the paper's §4.4 validation, imports are never more
	// restrictive than exports.
	ImportFilters map[string]map[bgp.ASN]ixp.ExportFilter

	// BilateralIXP holds bilateral peering links established across IXP
	// fabrics without the route server; these are invisible to the
	// paper's method by design (§5.8).
	BilateralIXP map[LinkKey][]string // link -> IXP names

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

	// MemberComms holds, per IXP and RS member, the exact community set
	// the member attaches to its route-server announcements (the wire
	// encoding of ExportFilters, minus omitted defaults).
	MemberComms map[string]map[bgp.ASN]bgp.Communities

	// RemoteMembers records, per IXP name, the members connected
	// remotely through a reseller rather than a local port (the
	// remote-peering scenario's ground truth; nil for worlds without
	// remote peering).
	RemoteMembers map[string][]bgp.ASN
}

// DenseIndex returns the shared ASN → dense-id map (id == position in
// Order), or nil for hand-assembled topologies. Callers must not
// mutate it.
func (t *Topology) DenseIndex() map[bgp.ASN]int32 { return t.index }

// IXPByName returns the IXP with the given name, or nil.
func (t *Topology) IXPByName(name string) *ixp.Info {
	for _, x := range t.IXPs {
		if x.Name == name {
			return x
		}
	}
	return nil
}

// ExportFilter returns the ground-truth export filter of member at the
// named IXP. The boolean is false if the member is not an RS member
// there.
func (t *Topology) ExportFilter(ixpName string, member bgp.ASN) (ixp.ExportFilter, bool) {
	m, ok := t.ExportFilters[ixpName]
	if !ok {
		return ixp.ExportFilter{}, false
	}
	f, ok := m[member]
	return f, ok
}

// ImportFilter returns the ground-truth import filter.
func (t *Topology) ImportFilter(ixpName string, member bgp.ASN) (ixp.ExportFilter, bool) {
	m, ok := t.ImportFilters[ixpName]
	if !ok {
		return ixp.ExportFilter{}, false
	}
	f, ok := m[member]
	return f, ok
}

// RouteFlows reports whether routes announced by from reach to over the
// named route server: from's export filter allows to AND to's import
// filter accepts from.
func (t *Topology) RouteFlows(ixpName string, from, to bgp.ASN) bool {
	if from == to {
		return false
	}
	ef, ok := t.ExportFilter(ixpName, from)
	if !ok {
		return false
	}
	imf, ok := t.ImportFilter(ixpName, to)
	if !ok {
		return false
	}
	return ef.Allows(to) && imf.Allows(from)
}

// GroundTruthMLPLinks returns the set of true route-server peering
// links at the named IXP: pairs with route flow in at least one
// direction. Links where flow exists in only one direction are the
// asymmetric peerings the paper's reciprocity assumption knowingly
// misses.
func (t *Topology) GroundTruthMLPLinks(ixpName string) map[LinkKey]bool {
	x := t.IXPByName(ixpName)
	if x == nil {
		return nil
	}
	links := make(map[LinkKey]bool)
	members := x.SortedRSMembers()
	for i, a := range members {
		for _, b := range members[i+1:] {
			if t.RouteFlows(ixpName, a, b) || t.RouteFlows(ixpName, b, a) {
				links[MakeLinkKey(a, b)] = true
			}
		}
	}
	return links
}

// GroundTruthReciprocalLinks returns only the symmetric subset: pairs
// where routes flow in both directions. This is what the inference
// algorithm can recover at best.
func (t *Topology) GroundTruthReciprocalLinks(ixpName string) map[LinkKey]bool {
	x := t.IXPByName(ixpName)
	if x == nil {
		return nil
	}
	return t.reciprocalLinks([]*ixp.Info{x})
}

// rsPolicy is one RS member's export and import filter at an IXP.
type rsPolicy struct {
	asn      bgp.ASN
	exp, imp ixp.ExportFilter
}

// reciprocal is the pair rule of the truth mesh (§4.1 applied to the
// true filters): routes flow over the route server from p to q and
// from q to p.
func (p *rsPolicy) reciprocal(q *rsPolicy) bool {
	return p.asn != q.asn &&
		p.exp.Allows(q.asn) && q.imp.Allows(p.asn) &&
		q.exp.Allows(p.asn) && p.imp.Allows(q.asn)
}

// policy looks up member's filters at the named IXP; a member missing
// either filter cannot be in a reciprocal pair at all.
func (t *Topology) policy(ixpName string, member bgp.ASN) (rsPolicy, bool) {
	exp, ok := t.ExportFilters[ixpName][member]
	if !ok {
		return rsPolicy{}, false
	}
	imp, ok := t.ImportFilters[ixpName][member]
	return rsPolicy{asn: member, exp: exp, imp: imp}, ok
}

// reciprocalLinks returns every pair of RS members with RouteFlows in
// both directions at one of the given IXPs, as a set.
func (t *Topology) reciprocalLinks(ixps []*ixp.Info) map[LinkKey]bool {
	packed := t.appendReciprocal(nil, ixps)
	links := make(map[LinkKey]bool, len(packed))
	for _, k := range packed {
		links[unpackLinkKey(k)] = true
	}
	return links
}

// SortedGroundTruthReciprocalLinks returns the keys of
// AllGroundTruthReciprocalLinks ascending (CompareLinkKeys) from the
// same scan, without building the set: the scan's packed keys are
// sorted and compacted in place.
func (t *Topology) SortedGroundTruthReciprocalLinks() []LinkKey {
	packed := t.appendReciprocal(nil, t.IXPs)
	slices.Sort(packed)
	packed = slices.Compact(packed)
	links := make([]LinkKey, len(packed))
	for i, k := range packed {
		links[i] = unpackLinkKey(k)
	}
	return links
}

// appendReciprocal is the one scan of the truth mesh: it appends to dst
// every reciprocal pair of RS members at each of ixps, packed as
// A<<32|B so that ascending packed keys are CompareLinkKeys order. A
// pair reciprocal at several IXPs is appended once per IXP. Each
// member's filters are looked up once instead of per ordered pair.
func (t *Topology) appendReciprocal(dst []uint64, ixps []*ixp.Info) []uint64 {
	var pol []rsPolicy
	for _, x := range ixps {
		pol = pol[:0]
		for _, m := range x.RSMembers {
			if p, ok := t.policy(x.Name, m); ok {
				pol = append(pol, p)
			}
		}
		for i := range pol {
			for j := i + 1; j < len(pol); j++ {
				if pol[i].reciprocal(&pol[j]) {
					k := MakeLinkKey(pol[i].asn, pol[j].asn)
					dst = append(dst, uint64(k.A)<<32|uint64(k.B))
				}
			}
		}
	}
	return dst
}

func unpackLinkKey(k uint64) LinkKey { return LinkKey{A: bgp.ASN(k >> 32), B: bgp.ASN(k)} }

// IsReciprocalLink reports whether MakeLinkKey(a, b) is in
// AllGroundTruthReciprocalLinks: some IXP has both a and b as RS
// members whose filters let routes flow both ways. It costs a few
// filter lookups per IXP, not a scan of the mesh, so a caller that knows
// which pairs a mutation can touch keeps the mesh current pair by pair.
func (t *Topology) IsReciprocalLink(a, b bgp.ASN) bool {
	for _, x := range t.IXPs {
		pa, ok := t.policy(x.Name, a)
		if !ok {
			continue
		}
		pb, ok := t.policy(x.Name, b)
		if ok && pa.reciprocal(&pb) && x.IsRSMember(a) && x.IsRSMember(b) {
			return true
		}
	}
	return false
}

// AllGroundTruthMLPLinks unions GroundTruthMLPLinks over all IXPs.
func (t *Topology) AllGroundTruthMLPLinks() map[LinkKey]bool {
	links := make(map[LinkKey]bool)
	for _, x := range t.IXPs {
		for k := range t.GroundTruthMLPLinks(x.Name) {
			links[k] = true
		}
	}
	return links
}

// CustomerCone returns the set of ASNs in asn's customer cone: asn
// itself plus everything reachable by repeatedly following customer
// edges (the definition of [32] used in §5.5).
func (t *Topology) CustomerCone(asn bgp.ASN) map[bgp.ASN]bool {
	cone := make(map[bgp.ASN]bool)
	var walk func(a bgp.ASN)
	walk = func(a bgp.ASN) {
		if cone[a] {
			return
		}
		cone[a] = true
		if as := t.ASes[a]; as != nil {
			for _, c := range as.Customers {
				walk(c)
			}
		}
	}
	walk(asn)
	return cone
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
			out = append(out, Link{A: min2(asn, p), B: max2(asn, p), Rel: RelC2P})
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

// Validate performs structural sanity checks on the topology; the
// generator's tests call it, and cmd/topogen refuses to write a world
// that fails it.
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
			ef, ok := t.ExportFilter(x.Name, m)
			if !ok {
				return fmt.Errorf("topology: %s RS member %s missing export filter", x.Name, m)
			}
			imf, ok := t.ImportFilter(x.Name, m)
			if !ok {
				return fmt.Errorf("topology: %s RS member %s missing import filter", x.Name, m)
			}
			// §4.4 invariant: import never more restrictive than export.
			for _, other := range x.RSMembers {
				if other == m {
					continue
				}
				if ef.Allows(other) && !imf.Allows(other) {
					return fmt.Errorf("topology: %s member %s import blocks %s but export allows it",
						x.Name, m, other)
				}
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

func min2(a, b bgp.ASN) bgp.ASN {
	if a < b {
		return a
	}
	return b
}

func max2(a, b bgp.ASN) bgp.ASN {
	if a > b {
		return a
	}
	return b
}
