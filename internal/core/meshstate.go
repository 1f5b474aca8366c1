// Delta-maintained reciprocity mesh: the incremental counterpart of
// InferLinks. A window close used to rebuild every covered setter's
// export filter and re-run the O(covered²) reciprocity check per IXP;
// MeshState instead keeps the covered setter set, each setter's
// reconstructed filter and the live link set, and re-derives exactly
// the (IXP, setter) pairs whose refcounted observation counts changed
// since the last window close. A dirtied setter re-votes its filter
// (O(distinct community sets) via the store's maintained tally); when
// its coverage or filter really changed, it re-applies InferLinks' one
// pair rule (reciprocal) against every covered co-member and brings
// each link up or down to match. Link attribution, the multi-IXP
// overlap and the Jaccard stability numerator/denominator are
// maintained as running counters, so a window close costs O(churn),
// not O(world).
package core

import (
	"maps"
	"slices"
	"sort"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
	"mlpeering/internal/topology"
)

// meshSetter is one RS member's maintained mesh state at one IXP.
type meshSetter struct {
	asn     bgp.ASN
	covered bool
	filter  ixp.ExportFilter
}

// meshIXP is one IXP's maintained mesh: its setters in first-coverage
// order, each kept once covered and never freed — bounded by the members
// ever covered, not by trace length. Its live links are the keys of
// MeshState.links whose attribution names it.
type meshIXP struct {
	entry   *IXPEntry
	members []bgp.ASN // entry.Members(), cached once per run
	byASN   map[bgp.ASN]*meshSetter
	setters []*meshSetter
	covered int

	// snap is the IXPInference the last Snapshot materialized; stale
	// records that a setter joined, left or changed filter since, i.e.
	// that snap no longer describes this state.
	snap  *IXPInference
	stale bool
}

// MeshState is the delta-maintained §4.1 reciprocity mesh over every
// IXP of a dictionary. Apply consumes the dirty (IXP, setter) set a
// DeltaObservations tracked since the last window close and updates
// filters, links and the running counters; Snapshot materializes the
// equivalent of InferLinks over the same store. Not safe for
// concurrent use.
type MeshState struct {
	dict   *Dictionary
	byName map[string]*meshIXP

	// links maps every live link to its sorted IXP attribution list —
	// the mesh's one link set; an IXP's own links are the keys whose
	// list names it. multi counts the links attributed to more than one
	// IXP. The lists are copy-on-write — addLink/removeLink replace a
	// list, never edit one in place — so Snapshot hands them to a
	// Result as they are.
	links map[topology.LinkKey][]string
	multi int

	// Jaccard stability counters: prevLinks is the mesh size at the
	// last CloseStability; changed records, for every link touched
	// since, whether it was present then (first touch wins, so flaps
	// that cancel out contribute nothing).
	prevLinks int
	changed   map[topology.LinkKey]bool

	dirty []DirtySetter

	// snap is the Result the last Snapshot returned; moved is the set of
	// links whose attribution was added to or removed from since — what
	// the next Result's index patches into snap's (empty: share it). It
	// accumulates across windows nobody materialized and is not kept at
	// all before the first Snapshot, whose index is built from scratch.
	snap  *Result
	moved map[topology.LinkKey]struct{}
}

// NewMeshState returns an empty mesh over the dictionary's IXPs.
func NewMeshState(dict *Dictionary) *MeshState {
	ms := &MeshState{
		dict:    dict,
		byName:  make(map[string]*meshIXP, len(dict.Entries)),
		links:   make(map[topology.LinkKey][]string),
		changed: make(map[topology.LinkKey]bool),
		moved:   make(map[topology.LinkKey]struct{}),
	}
	for _, e := range dict.Entries {
		ms.byName[e.Name] = &meshIXP{
			entry:   e,
			members: e.Members(),
			byASN:   make(map[bgp.ASN]*meshSetter),
		}
	}
	return ms
}

// TotalLinks returns the number of distinct live links.
func (ms *MeshState) TotalLinks() int { return len(ms.links) }

// MultiIXPLinks returns how many live links are inferred at more than
// one IXP.
func (ms *MeshState) MultiIXPLinks() int { return ms.multi }

// Apply drains the store's dirty setters and re-derives exactly their
// coverage, filter and reciprocity links, in drained order. Everything
// else is untouched: the cost is O(setters whose filter changed ×
// covered co-members). Steady-state applies reuse the drained dirty
// list and each IXP's slot state, so a window close stays
// allocation-light.
//
//mlplint:allocfree
func (ms *MeshState) Apply(obs *DeltaObservations) {
	ms.dirty = obs.DrainDirty(ms.dirty[:0])
	for _, d := range ms.dirty {
		mi := ms.byName[d.IXP]
		if mi == nil || !mi.entry.IsMember(d.Setter) {
			continue // a stray observation outside known connectivity
		}
		ms.updateSetter(obs, mi, d.Setter)
	}
}

// updateSetter re-derives one (IXP, setter) from the store. A setter
// whose coverage and filter held (a duplicate drain among them) is left
// as it is; otherwise every covered co-member's link is brought to
// what the pair rule says now. The outcome is order-independent across
// the dirty set: a pair of changed setters is settled by whichever side
// is processed last, with both filters final.
func (ms *MeshState) updateSetter(obs *DeltaObservations, mi *meshIXP, asn bgp.ASN) {
	f, covered := obs.Filter(mi.entry.Name, asn, mi.entry.Scheme)
	s := mi.byASN[asn]
	if s == nil {
		if !covered {
			return
		}
		s = &meshSetter{asn: asn}
		mi.byASN[asn] = s
		mi.setters = append(mi.setters, s)
	}
	if covered == s.covered && f.Equal(s.filter) {
		return
	}
	switch {
	case covered && !s.covered:
		mi.covered++
	case !covered && s.covered:
		mi.covered--
	}
	s.covered, s.filter = covered, f
	mi.stale = true
	for _, o := range mi.setters {
		if o == s || !o.covered {
			continue
		}
		key := topology.MakeLinkKey(asn, o.asn)
		want := covered && reciprocal(asn, f, o.asn, o.filter)
		if want != slices.Contains(ms.links[key], mi.entry.Name) {
			if want {
				ms.addLink(mi, key)
			} else {
				ms.removeLink(mi, key)
			}
		}
	}
}

// addLink brings a link up at mi: mi's IXP joins its sorted attribution
// list, maintaining the multi-IXP counter and the stability deltas. The
// first-touch changed entry happens before any event mutated the key's
// attribution, so it always records presence at the last close. The
// list is replaced, not edited: the previous one may be shared with a
// published Result.
func (ms *MeshState) addLink(mi *meshIXP, key topology.LinkKey) {
	ms.markMoved(key)
	names := ms.links[key]
	if len(names) == 0 {
		if _, seen := ms.changed[key]; !seen {
			ms.changed[key] = false // absent at the last close
		}
	}
	i := sort.SearchStrings(names, mi.entry.Name)
	grown := make([]string, len(names)+1)
	copy(grown, names[:i])
	grown[i] = mi.entry.Name
	copy(grown[i+1:], names[i:])
	ms.links[key] = grown
	if len(grown) == 2 {
		ms.multi++
	}
}

// removeLink takes a link down at mi and withdraws mi's attribution,
// dropping the link entirely when no IXP attributes it anymore.
// Copy-on-write like addLink.
func (ms *MeshState) removeLink(mi *meshIXP, key topology.LinkKey) {
	ms.markMoved(key)
	names := ms.links[key]
	if len(names) == 1 {
		delete(ms.links, key)
		if _, seen := ms.changed[key]; !seen {
			ms.changed[key] = true // present at the last close
		}
		return
	}
	i := sort.SearchStrings(names, mi.entry.Name)
	ms.links[key] = slices.Delete(slices.Clone(names), i, i+1)
	if len(names) == 2 {
		ms.multi--
	}
}

// markMoved records that key's attribution differs from what the last
// Snapshot materialized.
func (ms *MeshState) markMoved(key topology.LinkKey) {
	if ms.snap != nil {
		ms.moved[key] = struct{}{}
	}
}

// CloseStability finalizes one window: it returns the Jaccard
// similarity between the mesh at the previous close and now, derived
// from the running change counters instead of re-walking both link
// sets, and resets the counters for the next window.
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
// returns. The Members slices alias the mesh's cached member lists; like
// every Result, snapshots are read-only views — which is what lets
// consecutive snapshots share structure: an IXP no setter joined, left
// or re-filtered at since the last call keeps its *IXPInference, an
// unchanged link set keeps its Links map and link index, and when
// nothing changed at all the previous *Result itself is returned. A
// changed link set patches the previous index with the sorted keys that
// moved; the first index is built from scratch.
//
//mlplint:frozen
func (ms *MeshState) Snapshot() *Result {
	prev := ms.snap
	shareLinks := prev != nil && len(ms.moved) == 0
	if shareLinks && !slices.ContainsFunc(ms.dict.Entries, func(e *IXPEntry) bool { return ms.byName[e.Name].stale }) {
		return prev
	}
	res := &Result{PerIXP: make(map[string]*IXPInference, len(ms.dict.Entries))}
	for _, e := range ms.dict.Entries {
		mi := ms.byName[e.Name]
		if mi.snap == nil || mi.stale {
			mi.snap, mi.stale = mi.inference(), false
		}
		res.PerIXP[e.Name] = mi.snap
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

// inference materializes mi's current state as an IXPInference.
//
//mlplint:frozen
func (mi *meshIXP) inference() *IXPInference {
	x := &IXPInference{
		Name:    mi.entry.Name,
		Members: mi.members,
		Covered: make([]bgp.ASN, 0, mi.covered),
		Filters: make(map[bgp.ASN]ixp.ExportFilter, mi.covered),
		Sources: make(map[bgp.ASN]DataSource, mi.covered),
	}
	for _, s := range mi.setters {
		if s.covered {
			x.Covered = append(x.Covered, s.asn)
			x.Filters[s.asn] = s.filter
			x.Sources[s.asn] = ObsPassive
		}
	}
	slices.Sort(x.Covered)
	return x
}
