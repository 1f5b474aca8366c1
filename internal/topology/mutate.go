package topology

import (
	"fmt"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
)

// Mutation helpers used by the route-churn dynamics engine
// (internal/churn): they evolve a generated world in place — bilateral
// session flaps, route-server membership and filter churn, prefix-origin
// moves — while preserving every structural invariant Validate checks.
// None of them add or remove ASes, so dense ids and Order stay stable
// and a propagation engine built over the topology can patch itself
// incrementally instead of being rebuilt.

// AddPeerLink establishes a bilateral p2p session between a and b,
// mirrored on both AS records. Adding an existing link is a no-op.
func (t *Topology) AddPeerLink(a, b bgp.ASN) error {
	if a == b {
		return fmt.Errorf("topology: self peering %s", a)
	}
	asA, asB := t.ASes[a], t.ASes[b]
	if asA == nil || asB == nil {
		return fmt.Errorf("topology: peer link %s--%s references unknown AS", a, b)
	}
	asA.Peers = insertASN(asA.Peers, b)
	asB.Peers = insertASN(asB.Peers, a)
	return nil
}

// RemovePeerLink tears down the bilateral session between a and b (and
// any record of it as an IXP bilateral). Removing a non-existent link is
// a no-op.
func (t *Topology) RemovePeerLink(a, b bgp.ASN) error {
	asA, asB := t.ASes[a], t.ASes[b]
	if asA == nil || asB == nil {
		return fmt.Errorf("topology: peer link %s--%s references unknown AS", a, b)
	}
	asA.Peers = removeASN(asA.Peers, b)
	asB.Peers = removeASN(asB.Peers, a)
	if t.BilateralIXP != nil {
		delete(t.BilateralIXP, MakeLinkKey(a, b))
	}
	return nil
}

// JoinRouteServer connects member (which must already be present at the
// IXP) to the route server with the given policies. The §4.4 invariant —
// imports never more restrictive than exports — is checked here so churn
// can never produce a world Validate rejects.
func (t *Topology) JoinRouteServer(ixpName string, member bgp.ASN, export, imp ixp.ExportFilter, comms bgp.Communities) error {
	info := t.IXPByName(ixpName)
	if info == nil {
		return fmt.Errorf("topology: unknown IXP %s", ixpName)
	}
	if !info.IsMember(member) {
		return fmt.Errorf("topology: %s is not present at %s", member, ixpName)
	}
	if info.IsRSMember(member) {
		return fmt.Errorf("topology: %s already an RS member at %s", member, ixpName)
	}
	for _, other := range info.RSMembers {
		if export.Allows(other) && !imp.Allows(other) {
			return fmt.Errorf("topology: %s joining %s: import blocks %s but export allows it",
				member, ixpName, other)
		}
	}
	info.RSMembers = append(info.RSMembers, member)
	t.setRSPolicy(ixpName, member, export, imp, comms)
	return nil
}

// LeaveRouteServer disconnects member from the route server, dropping
// its filters and community encoding. The member stays present at the
// IXP (its port is still lit; only the RS sessions are gone).
func (t *Topology) LeaveRouteServer(ixpName string, member bgp.ASN) error {
	info := t.IXPByName(ixpName)
	if info == nil {
		return fmt.Errorf("topology: unknown IXP %s", ixpName)
	}
	if !info.IsRSMember(member) {
		return fmt.Errorf("topology: %s is not an RS member at %s", member, ixpName)
	}
	out := info.RSMembers[:0]
	for _, m := range info.RSMembers {
		if m != member {
			out = append(out, m)
		}
	}
	info.RSMembers = out
	if m := t.ExportFilters[ixpName]; m != nil {
		delete(m, member)
	}
	if m := t.ImportFilters[ixpName]; m != nil {
		delete(m, member)
	}
	if m := t.MemberComms[ixpName]; m != nil {
		delete(m, member)
	}
	return nil
}

// SetRSFilters replaces an existing RS member's export/import policy and
// the community encoding of it, enforcing the §4.4 invariant.
func (t *Topology) SetRSFilters(ixpName string, member bgp.ASN, export, imp ixp.ExportFilter, comms bgp.Communities) error {
	info := t.IXPByName(ixpName)
	if info == nil {
		return fmt.Errorf("topology: unknown IXP %s", ixpName)
	}
	if !info.IsRSMember(member) {
		return fmt.Errorf("topology: %s is not an RS member at %s", member, ixpName)
	}
	for _, other := range info.RSMembers {
		if other != member && export.Allows(other) && !imp.Allows(other) {
			return fmt.Errorf("topology: %s at %s: import blocks %s but export allows it",
				member, ixpName, other)
		}
	}
	t.setRSPolicy(ixpName, member, export, imp, comms)
	return nil
}

func (t *Topology) setRSPolicy(ixpName string, member bgp.ASN, export, imp ixp.ExportFilter, comms bgp.Communities) {
	if t.ExportFilters == nil {
		t.ExportFilters = make(map[string]map[bgp.ASN]ixp.ExportFilter)
	}
	if t.ExportFilters[ixpName] == nil {
		t.ExportFilters[ixpName] = make(map[bgp.ASN]ixp.ExportFilter)
	}
	t.ExportFilters[ixpName][member] = export
	if t.ImportFilters == nil {
		t.ImportFilters = make(map[string]map[bgp.ASN]ixp.ExportFilter)
	}
	if t.ImportFilters[ixpName] == nil {
		t.ImportFilters[ixpName] = make(map[bgp.ASN]ixp.ExportFilter)
	}
	t.ImportFilters[ixpName][member] = imp
	if t.MemberComms == nil {
		t.MemberComms = make(map[string]map[bgp.ASN]bgp.Communities)
	}
	if t.MemberComms[ixpName] == nil {
		t.MemberComms[ixpName] = make(map[bgp.ASN]bgp.Communities)
	}
	t.MemberComms[ixpName][member] = comms
}

// MovePrefix re-homes an originated prefix from one AS to another (the
// prefix-ownership churn of provider switches and acquisitions). The
// prefix's geographic region is unchanged: the address block serves the
// same users from a new origin.
func (t *Topology) MovePrefix(p bgp.Prefix, from, to bgp.ASN) error {
	if from == to {
		return fmt.Errorf("topology: prefix move %s: identical origin %s", p, from)
	}
	src, dst := t.ASes[from], t.ASes[to]
	if src == nil || dst == nil {
		return fmt.Errorf("topology: prefix move %s: unknown AS", p)
	}
	idx := -1
	for i, q := range src.Prefixes {
		if q == p {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("topology: %s does not originate %s", from, p)
	}
	src.Prefixes = append(src.Prefixes[:idx], src.Prefixes[idx+1:]...)
	dst.Prefixes = append(dst.Prefixes, p)
	return nil
}

// AllGroundTruthReciprocalLinks unions GroundTruthReciprocalLinks over
// all IXPs: the per-epoch "best recoverable mesh" the churn experiments
// score windowed inference against.
func (t *Topology) AllGroundTruthReciprocalLinks() map[LinkKey]bool {
	return t.reciprocalLinks(t.IXPs)
}
