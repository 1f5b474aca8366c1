// Delta-maintained reciprocity mesh: the incremental counterpart of
// InferLinks. MeshState keeps the live link set over a DeltaObservations
// store, whose one record per (IXP, setter) also holds the coverage and
// filter the mesh last derived. At window close it re-derives exactly
// the records whose refcounted counts changed since the last close: a
// record re-votes its filter (O(distinct community sets)) and, when its
// coverage or filter really changed, re-applies InferLinks' one pair
// rule (reciprocal) against every covered co-member, bringing each link
// up or down to match. Link attribution and the Jaccard stability
// counters are running state, so a window close costs O(churn), not
// O(world).
package core

import (
	"maps"
	"slices"
	"sort"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
	"mlpeering/internal/topology"
)

// MeshState is the delta-maintained §4.1 reciprocity mesh over every
// IXP of a DeltaObservations store. Apply re-derives the records the
// store dirtied since the last window close and updates links and the
// running counters; Snapshot materializes the equivalent of InferLinks
// over the same store. Not safe for concurrent use.
type MeshState struct {
	obs *DeltaObservations

	// links maps every live link to its sorted IXP attribution list —
	// the mesh's one link set; an IXP's own links are the keys whose
	// list names it. The lists are copy-on-write — addLink/removeLink
	// replace a list, never edit one in place — so Snapshot hands them to
	// a Result as they are.
	links map[topology.LinkKey][]string

	// Jaccard stability counters: prevLinks is the mesh size at the
	// last CloseStability; changed records, for every link touched
	// since, whether it was present then (first touch wins, so flaps
	// that cancel out contribute nothing).
	prevLinks int
	changed   map[topology.LinkKey]bool

	// snap is the Result the last Snapshot returned; moved is the set of
	// links touched since — what the next Result's index patches into
	// snap's (empty: share it). CloseStability folds each window's
	// touched links into it once a snapshot exists; it accumulates across
	// windows nobody materialized, and the first Snapshot's index is built
	// from scratch.
	snap  *Result
	moved map[topology.LinkKey]struct{}
}

// NewMeshState returns the mesh over obs, an empty store.
func NewMeshState(obs *DeltaObservations) *MeshState {
	for _, x := range obs.ixps {
		x.members = x.entry.Members()
	}
	return &MeshState{
		obs:     obs,
		links:   make(map[topology.LinkKey][]string),
		changed: make(map[topology.LinkKey]bool),
		moved:   make(map[topology.LinkKey]struct{}),
	}
}

// TotalLinks returns the number of distinct live links.
func (ms *MeshState) TotalLinks() int { return len(ms.links) }

// Apply re-derives exactly the records the store dirtied since the last
// Apply — their coverage, filter and reciprocity links — in dirtying
// order, and empties the dirty list. Everything else is untouched: the
// cost is O(setters whose filter changed × covered co-members).
// Steady-state applies reuse the dirty list, so a window close stays
// allocation-light.
//
//mlplint:allocfree
func (ms *MeshState) Apply() {
	o := ms.obs
	for _, s := range o.dirty {
		s.dirty = false
		ms.updateSetter(s)
	}
	o.dirty = o.dirty[:0]
}

// updateSetter re-derives one record from its tally. A record whose
// coverage and filter held is left as it is; otherwise every covered
// co-member's link (the IXP's covered list, not all its records) is
// brought to what the pair rule says now. The
// outcome is order-independent across the dirty set: a pair of changed
// setters is settled by whichever side is processed last, with both
// filters final.
func (ms *MeshState) updateSetter(s *setterDelta) {
	x := s.x
	f, covered := s.filter(x.entry.Scheme)
	if covered == s.meshCovered && f.Equal(s.meshFilter) {
		return
	}
	if covered != s.meshCovered {
		x.setCovered(s, covered)
	}
	s.meshCovered, s.meshFilter = covered, f
	x.stale = true
	for _, o := range x.covered {
		if o == s {
			continue
		}
		key := topology.MakeLinkKey(s.asn, o.asn)
		want := covered && reciprocal(s.asn, f, o.asn, o.meshFilter)
		if want != slices.Contains(ms.links[key], x.entry.Name) {
			if want {
				ms.addLink(x, key)
			} else {
				ms.removeLink(x, key)
			}
		}
	}
}

// touch returns key's attribution list and, on its first touch since
// the last CloseStability, logs whether the link is present: nothing
// moved it since that close, so this is its presence then.
func (ms *MeshState) touch(key topology.LinkKey) []string {
	names := ms.links[key]
	if _, seen := ms.changed[key]; !seen {
		ms.changed[key] = len(names) > 0
	}
	return names
}

// addLink brings a link up at x: x's IXP joins its sorted attribution
// list. The list is replaced, not edited: the previous one may be shared
// with a published Result.
func (ms *MeshState) addLink(x *ixpDelta, key topology.LinkKey) {
	names := ms.touch(key)
	i := sort.SearchStrings(names, x.entry.Name)
	grown := make([]string, len(names)+1)
	copy(grown, names[:i])
	grown[i] = x.entry.Name
	copy(grown[i+1:], names[i:])
	ms.links[key] = grown
}

// removeLink takes a link down at x and withdraws x's attribution,
// dropping the link entirely when no IXP attributes it anymore.
// Copy-on-write like addLink.
func (ms *MeshState) removeLink(x *ixpDelta, key topology.LinkKey) {
	names := ms.touch(key)
	if len(names) == 1 {
		delete(ms.links, key)
		return
	}
	i := sort.SearchStrings(names, x.entry.Name)
	ms.links[key] = slices.Delete(slices.Clone(names), i, i+1)
}

// CloseStability finalizes one window: it returns the Jaccard
// similarity between the mesh at the previous close and now, derived
// from the links touched since instead of re-walking both link sets,
// hands those links to the next Snapshot's index patch, and resets the
// counters for the next window.
func (ms *MeshState) CloseStability() float64 {
	added, removed := 0, 0
	for key, was := range ms.changed {
		_, is := ms.links[key]
		switch {
		case was && !is:
			removed++
		case !was && is:
			added++
		}
		if ms.snap != nil {
			ms.moved[key] = struct{}{}
		}
	}
	clear(ms.changed)
	inter := ms.prevLinks - removed
	union := ms.prevLinks + added
	ms.prevLinks = len(ms.links)
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Snapshot materializes the maintained mesh as a Result equivalent to
// InferLinks over the same observation store: the link map (a shallow
// clone — the attribution lists are copy-on-write and shared), per-IXP
// covered members, filters and sources, and the link index BuildIndex
// returns. A snapshot follows its window's close (CloseStability), which
// hands it the links that moved. The Members slices alias the mesh's
// cached member lists; like every Result, snapshots are read-only views —
// which is what lets consecutive snapshots share structure: an IXP no
// setter joined, left or re-filtered at since the last call keeps its
// *IXPInference, an unchanged link set keeps its Links map and link
// index, and when nothing changed at all the previous *Result itself is
// returned. A changed link set patches the previous index with the
// sorted keys that moved; the first index is built from scratch.
//
//mlplint:frozen
func (ms *MeshState) Snapshot() *Result {
	prev := ms.snap
	ixps := ms.obs.ixps
	shareLinks := prev != nil && len(ms.moved) == 0
	if shareLinks && !slices.ContainsFunc(ixps, func(x *ixpDelta) bool { return x.stale }) {
		return prev
	}
	res := &Result{PerIXP: make(map[string]*IXPInference, len(ixps))}
	for _, x := range ixps {
		if x.snap == nil || x.stale {
			x.snap, x.stale = x.inference(), false
		}
		res.PerIXP[x.entry.Name] = x.snap
	}
	switch {
	case shareLinks:
		res.Links, res.linkIndex = prev.Links, prev.linkIndex
	case prev == nil:
		res.Links = maps.Clone(ms.links)
		res.linkIndex = newLinkIndex(res)
	default:
		keys := slices.SortedFunc(maps.Keys(ms.moved), topology.CompareLinkKeys)
		clear(ms.moved)
		res.Links = maps.Clone(ms.links)
		res.linkIndex = patchLinkIndex(prev.linkIndex, keys, res.Links)
	}
	ms.snap = res
	return res
}

// inference materializes x's current mesh state as an IXPInference.
//
//mlplint:frozen
func (x *ixpDelta) inference() *IXPInference {
	inf := &IXPInference{
		Name:    x.entry.Name,
		Members: x.members,
		Filters: make(map[bgp.ASN]ixp.ExportFilter),
		Sources: make(map[bgp.ASN]DataSource),
	}
	for _, s := range x.covered {
		inf.Covered = append(inf.Covered, s.asn)
		inf.Filters[s.asn] = s.meshFilter
		inf.Sources[s.asn] = ObsPassive
	}
	slices.Sort(inf.Covered)
	return inf
}
