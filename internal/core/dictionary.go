// Package core implements the paper's contribution: inference of
// multilateral peering links from route-server BGP communities.
//
// The pipeline mirrors §4 of the paper:
//
//   - connectivity data (which ASes sit on which route server) comes
//     from IXP-published member lists, IRR AS-SETs, IRR searches for the
//     route server ASN, and looking-glass summaries;
//   - reachability data (who lets whom receive their routes) comes from
//     RS community values mined passively from collector archives
//     (§4.2) and actively from looking-glass queries (§4.1), with the
//     query-cost optimizations of §4.3;
//   - links follow from the reciprocity rule of §4.1 step 5;
//   - validation replays inferred links against third-party looking
//     glasses (§5.1).
package core

import (
	"fmt"
	"sort"

	"mlpeering/internal/bgp"
	"mlpeering/internal/irr"
	"mlpeering/internal/ixp"
)

// ConnectivitySource records where an IXP's member list came from, in
// decreasing order of reliability (§4: "Information obtained from LGs is
// the most reliable...").
type ConnectivitySource int

// Connectivity sources.
const (
	SourceNone ConnectivitySource = iota
	SourceIRRSearch
	SourceASSet
	SourceWebsite
	SourceLG
)

// String implements fmt.Stringer.
func (s ConnectivitySource) String() string {
	switch s {
	case SourceLG:
		return "looking-glass"
	case SourceWebsite:
		return "ixp-website"
	case SourceASSet:
		return "irr-as-set"
	case SourceIRRSearch:
		return "irr-search"
	default:
		return "none"
	}
}

// IXPEntry is the dictionary record for one IXP: its community scheme
// and the best-known route server member list.
type IXPEntry struct {
	Name   string
	Scheme ixp.Scheme

	members map[bgp.ASN]bool
	source  ConnectivitySource
}

// Members returns the known RS members in ascending order.
func (e *IXPEntry) Members() []bgp.ASN {
	out := make([]bgp.ASN, 0, len(e.members))
	for m := range e.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsMember reports whether asn is a known RS member.
func (e *IXPEntry) IsMember(asn bgp.ASN) bool { return e.members[asn] }

// MemberCount returns the number of known RS members.
func (e *IXPEntry) MemberCount() int { return len(e.members) }

// SetMembers replaces the member list if the new source is at least as
// reliable as the current one.
func (e *IXPEntry) SetMembers(members []bgp.ASN, src ConnectivitySource) {
	if src < e.source || len(members) == 0 {
		return
	}
	e.members = make(map[bgp.ASN]bool, len(members))
	for _, m := range members {
		e.members[m] = true
	}
	e.source = src
}

// Dictionary maps community schemes to IXPs and carries connectivity
// data. It is the static knowledge an operator assembles from IXP
// documentation before running the algorithm.
type Dictionary struct {
	Entries []*IXPEntry
	byName  map[string]*IXPEntry
}

// WebsiteData is the per-IXP information available from its public
// documentation: the community scheme, and the member list when the IXP
// publishes one.
type WebsiteData struct {
	Name                string
	Scheme              ixp.Scheme
	PublishedRSMembers  []bgp.ASN // nil when not published (LINX)
	PublishesMemberList bool
}

// BuildDictionary assembles the dictionary from IXP documentation and
// the IRR, applying the source-preference order of §4: website list,
// then AS-SET, then IRR search for aut-nums peering with the RS ASN.
func BuildDictionary(sites []WebsiteData, registry *irr.Registry) (*Dictionary, error) {
	d := &Dictionary{byName: make(map[string]*IXPEntry)}
	for _, site := range sites {
		if _, dup := d.byName[site.Name]; dup {
			return nil, fmt.Errorf("core: duplicate IXP %q in dictionary", site.Name)
		}
		e := &IXPEntry{Name: site.Name, Scheme: site.Scheme}
		if site.PublishesMemberList && len(site.PublishedRSMembers) > 0 {
			e.SetMembers(site.PublishedRSMembers, SourceWebsite)
		} else if registry != nil {
			// Try the IXP-maintained AS-SET first.
			if asns, err := registry.ExpandASSet(irr.ASSetName(site.Name)); err == nil && len(asns) > 0 {
				e.SetMembers(asns, SourceASSet)
			} else {
				// LINX-style: search aut-nums that declare policy
				// toward the route server ASN.
				if found := registry.SearchAutNumsMentioning(site.Scheme.RSASN); len(found) > 0 {
					e.SetMembers(found, SourceIRRSearch)
				}
			}
		}
		d.Entries = append(d.Entries, e)
		d.byName[site.Name] = e
	}
	return d, nil
}

// ByName returns the entry for an IXP, or nil.
func (d *Dictionary) ByName(name string) *IXPEntry { return d.byName[name] }

// identifyIXP attributes a community set to an IXP (§4.2). It first
// looks for values that embed a route server ASN; when only ambiguous
// EXCLUDE/INCLUDE values are present (e.g. 0:peer with the ALL value
// omitted), it falls back to combination disambiguation: the referenced
// peer ASes must all be members of the candidate IXP, and only one IXP
// may qualify. The attributor memoizes it per distinct community set, so
// it scans every entry's scheme.
//
//mlplint:allocfree
func (d *Dictionary) identifyIXP(cs bgp.Communities) (*IXPEntry, bool) {
	var sbuf, wbuf [4]*IXPEntry
	strong, weak := sbuf[:0], wbuf[:0]
	for _, e := range d.Entries {
		// Single pass over cs, classifying inline: identification,
		// reference count and membership verdict come from the same
		// walk the old RelevantCommunities allocation fed.
		identified := false
		allMembers := true
		refs := 0
		for _, c := range cs {
			act, peer := e.Scheme.Classify(c)
			if act == ixp.ActionNone {
				continue
			}
			if e.Scheme.Identifiable(c) {
				identified = true
				break
			}
			if act != ixp.ActionExclude && act != ixp.ActionInclude {
				continue
			}
			refs++
			if allMembers && !e.members[peer] {
				allMembers = false
			}
		}
		if identified {
			strong = append(strong, e)
			continue
		}
		// Weak candidate: every referenced peer must be a member.
		if refs > 0 && allMembers {
			weak = append(weak, e)
		}
	}
	if len(strong) == 1 {
		return strong[0], true
	}
	if len(strong) > 1 {
		return nil, false // conflicting strong evidence: discard
	}
	if len(weak) == 1 {
		return weak[0], true
	}
	return nil, false
}
