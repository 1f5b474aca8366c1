// Delta-maintained reciprocity mesh: the incremental counterpart of
// InferLinks. A window close used to rebuild every covered setter's
// export filter and re-run the O(covered²) reciprocity check per IXP;
// MeshState instead keeps the covered setter set, each setter's
// reconstructed filter, its allow bitset over co-member slots and the
// live link set — and re-derives exactly the (IXP, setter) pairs whose
// refcounted observation counts changed since the last window close.
// A dirtied setter re-votes its filter (O(distinct community sets) via
// the store's maintained tally) and re-checks reciprocity only against
// co-members whose allow relation could have flipped: the peer-set
// symmetric difference of the old and new filter, except on a filter
// mode flip, where every covered co-member is rechecked. Link
// attribution, the multi-IXP overlap and the Jaccard stability
// numerator/denominator are maintained as running counters, so a
// window close costs O(churn), not O(world).
package core

import (
	"maps"
	"math/bits"
	"slices"
	"sort"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
	"mlpeering/internal/par"
	"mlpeering/internal/topology"
)

// meshBits is a dense grow-on-write bitset over a mesh IXP's setter
// slots. test/clear beyond the allocated words answer false / no-op,
// so bitsets extend lazily as later setters join.
type meshBits []uint64

func (b *meshBits) grow(n int) {
	for len(*b)*64 < n {
		*b = append(*b, 0)
	}
}

func (b meshBits) test(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(uint(i)&63)) != 0
}

func (b *meshBits) set(i int) {
	b.grow(i + 1)
	(*b)[i>>6] |= 1 << (uint(i) & 63)
}

func (b *meshBits) clear(i int) {
	if w := i >> 6; w < len(*b) {
		(*b)[w] &^= 1 << (uint(i) & 63)
	}
}

func (b *meshBits) setTo(i int, v bool) {
	if v {
		b.set(i)
	} else {
		b.clear(i)
	}
}

func (b meshBits) forEach(fn func(i int)) {
	for w, word := range b {
		for word != 0 {
			i := bits.TrailingZeros64(word)
			word &= word - 1
			fn(w*64 + i)
		}
	}
}

func (b meshBits) zero() {
	for i := range b {
		b[i] = 0
	}
}

// meshSetter is one RS member's maintained mesh state at one IXP.
type meshSetter struct {
	asn     bgp.ASN
	covered bool
	filter  ixp.ExportFilter
	// allow bit j: filter.Allows(slot j's ASN). Authoritative for
	// covered slots; bits of uncovered slots may be stale and are
	// recomputed when that slot rejoins.
	allow meshBits
	// links bit j: live reciprocity link with covered slot j.
	links meshBits
}

// meshEvent is one link transition recorded by an IXP's per-IXP update
// pass, replayed into the global counters by the ordered commit.
type meshEvent struct {
	key topology.LinkKey
	add bool
}

// meshIXP is one IXP's maintained mesh: slot-indexed setters (slots are
// assigned on first coverage and never freed — bounded by the members
// ever covered, not by trace length) and the live per-IXP link set.
// events buffers the link transitions of the current Apply pass; it is
// only touched by the single worker owning the IXP's work item and by
// the sequential commit.
type meshIXP struct {
	entry   *IXPEntry
	members []bgp.ASN // entry.Members(), cached once per run
	slotOf  map[bgp.ASN]int
	setters []*meshSetter
	covered int
	links   map[topology.LinkKey]bool
	events  []meshEvent

	// snap is the IXPInference the last Snapshot materialized; stale
	// records that a setter joined, left or changed filter since, i.e.
	// that snap no longer describes this state.
	snap  *IXPInference
	stale bool
}

// MeshState is the delta-maintained §4.1 reciprocity mesh over every
// IXP of a dictionary. Apply consumes the dirty (IXP, setter) set a
// DeltaObservations tracked since the last window close and updates
// filters, allow bitsets, links and the running counters; Snapshot
// materializes the equivalent of InferLinks over the same store. Apply
// and Snapshot fan out per IXP on a worker pool internally; the struct
// itself is not safe for concurrent use.
type MeshState struct {
	dict   *Dictionary
	byName map[string]*meshIXP

	// links maps every live link to its sorted IXP attribution list;
	// multi counts the links attributed to more than one IXP. The lists
	// are copy-on-write — commitAdd/commitRemove replace a list, never
	// edit one in place — so Snapshot hands them to a Result as they are.
	links map[topology.LinkKey][]string
	multi int

	// Jaccard stability counters: prevLinks is the mesh size at the
	// last CloseStability; changed records, for every link touched
	// since, whether it was present then (first touch wins, so flaps
	// that cancel out contribute nothing).
	prevLinks int
	changed   map[topology.LinkKey]bool

	dirty     []DirtySetter
	dirtySeen map[DirtySetter]struct{}

	// Apply scratch: per-IXP work items (first-seen order over the
	// drained dirty list) and the IXP -> work index map.
	works   []meshWork
	workIdx map[string]int

	// snap is the Result the last Snapshot returned; moved is the set of
	// links whose attribution was added to or removed from since — what
	// the next Result's index patches into snap's (empty: share it). It
	// accumulates across windows nobody materialized and is not kept at
	// all before the first Snapshot, when there is nothing to patch.
	snap  *Result
	moved map[topology.LinkKey]struct{}
}

// meshWork is one Apply work item: one IXP's dirty setters in drained
// order. Work items touch disjoint per-IXP state, so the pool runs them
// concurrently; their recorded link events commit sequentially in
// work-item order, which is deterministic and worker-count-invariant
// because it derives from the drained dirty list alone.
type meshWork struct {
	mi      *meshIXP
	setters []bgp.ASN
}

// NewMeshState returns an empty mesh over the dictionary's IXPs.
func NewMeshState(dict *Dictionary) *MeshState {
	ms := &MeshState{
		dict:      dict,
		byName:    make(map[string]*meshIXP, len(dict.Entries)),
		links:     make(map[topology.LinkKey][]string),
		changed:   make(map[topology.LinkKey]bool),
		moved:     make(map[topology.LinkKey]struct{}),
		dirtySeen: make(map[DirtySetter]struct{}),
		workIdx:   make(map[string]int),
	}
	for _, e := range dict.Entries {
		ms.byName[e.Name] = &meshIXP{
			entry:   e,
			members: e.Members(),
			slotOf:  make(map[bgp.ASN]int),
			links:   make(map[topology.LinkKey]bool),
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
// coverage, filter and reciprocity links. Everything else is untouched:
// the cost is O(churned setters × their flipped allow relations). The
// drained set is partitioned into per-IXP work items that run on up to
// workers goroutines — per-IXP mesh state is disjoint and the store is
// read-only during the pass — and the recorded link transitions commit
// into the global attribution/stability counters sequentially in
// work-item order, so the outcome is identical for any worker count.
// Steady-state applies reuse the drained dirty list, the work items and
// each IXP's slot state, so a window close stays allocation-light.
//
//mlplint:allocfree
func (ms *MeshState) Apply(obs *DeltaObservations, workers int) {
	ms.dirty = obs.DrainDirty(ms.dirty[:0])
	ms.works = ms.works[:0]
	for _, d := range ms.dirty {
		if _, dup := ms.dirtySeen[d]; dup {
			continue
		}
		ms.dirtySeen[d] = struct{}{}
		mi := ms.byName[d.IXP]
		if mi == nil || !mi.entry.IsMember(d.Setter) {
			continue // a stray observation outside known connectivity
		}
		idx, ok := ms.workIdx[d.IXP]
		if !ok {
			idx = len(ms.works)
			ms.workIdx[d.IXP] = idx
			ms.works = append(ms.works, meshWork{mi: mi})
		}
		ms.works[idx].setters = append(ms.works[idx].setters, d.Setter)
	}
	clear(ms.dirtySeen)
	clear(ms.workIdx)
	//mlplint:allocfree one pooled closure per Apply fans out the per-IXP work items
	par.Run(workers, len(ms.works), func(i int) {
		w := &ms.works[i]
		for _, setter := range w.setters {
			ms.updateSetter(obs, w.mi, setter)
		}
	})
	for i := range ms.works {
		w := &ms.works[i]
		for _, ev := range w.mi.events {
			if ev.add {
				ms.commitAdd(w.mi, ev.key)
			} else {
				ms.commitRemove(w.mi, ev.key)
			}
		}
		w.mi.events = w.mi.events[:0]
		w.mi = nil
	}
}

// updateSetter re-derives one (IXP, setter): departed, joined, or
// re-filtered. The outcome is order-independent across the dirty set:
// a pair of dirty setters is rechecked by whichever side is processed
// last with both filters final. It touches only mi's state plus the
// read-only store, so distinct IXPs update concurrently.
func (ms *MeshState) updateSetter(obs *DeltaObservations, mi *meshIXP, setter bgp.ASN) {
	f, ok := obs.Filter(mi.entry.Name, setter, mi.entry.Scheme)
	slot, haveSlot := mi.slotOf[setter]
	var s *meshSetter
	if haveSlot {
		s = mi.setters[slot]
	}
	switch {
	case !ok:
		if s == nil || !s.covered {
			return
		}
		ms.dropSetter(mi, slot, s)
	case s == nil || !s.covered:
		if s == nil {
			slot = len(mi.setters)
			s = &meshSetter{asn: setter}
			mi.setters = append(mi.setters, s)
			mi.slotOf[setter] = slot
		}
		ms.joinSetter(mi, slot, s, f)
	default:
		ms.refilterSetter(mi, slot, s, f)
	}
}

// dropSetter removes a setter that lost coverage: every live link of
// its slot goes away.
func (ms *MeshState) dropSetter(mi *meshIXP, slot int, s *meshSetter) {
	s.links.forEach(func(j int) {
		o := mi.setters[j]
		o.links.clear(slot)
		ms.removeLink(mi, s.asn, o.asn)
	})
	s.links.zero()
	s.covered = false
	s.filter = ixp.ExportFilter{}
	mi.covered--
	mi.stale = true
}

// joinSetter covers a setter (fresh or rejoining): both allow
// directions against every covered co-member are recomputed — the
// co-members' bits for this slot may be stale from filter changes while
// the slot was uncovered.
func (ms *MeshState) joinSetter(mi *meshIXP, slot int, s *meshSetter, f ixp.ExportFilter) {
	mi.stale = true
	s.covered = true
	s.filter = f
	s.allow.grow(len(mi.setters))
	s.allow.zero()
	s.links.grow(len(mi.setters))
	s.links.zero()
	for j, o := range mi.setters {
		if j == slot || !o.covered {
			continue
		}
		oa := o.filter.Allows(s.asn)
		o.allow.setTo(slot, oa)
		sa := f.Allows(o.asn)
		s.allow.setTo(j, sa)
		if oa && sa {
			s.links.set(j)
			o.links.set(slot)
			ms.addLink(mi, s.asn, o.asn)
		}
	}
	mi.covered++
}

// refilterSetter swaps in a changed filter. With an unchanged mode the
// allow relation flips exactly on the peer-set symmetric difference, so
// only those co-members are rechecked; a mode flip falls back to
// rechecking every covered co-member.
func (ms *MeshState) refilterSetter(mi *meshIXP, slot int, s *meshSetter, f ixp.ExportFilter) {
	old := s.filter
	if old.Equal(f) {
		s.filter = f
		return
	}
	mi.stale = true
	s.filter = f
	if old.Mode != f.Mode {
		for j, o := range mi.setters {
			if j != slot && o.covered {
				ms.recheckPair(mi, slot, s, j, o)
			}
		}
		return
	}
	for p := range old.Peers {
		if !f.Peers[p] {
			ms.recheckPeer(mi, slot, s, p)
		}
	}
	for p := range f.Peers {
		if !old.Peers[p] {
			ms.recheckPeer(mi, slot, s, p)
		}
	}
}

// recheckPeer rechecks the (setter, peer) allow relation if the peer is
// a currently covered co-member.
func (ms *MeshState) recheckPeer(mi *meshIXP, slot int, s *meshSetter, peer bgp.ASN) {
	j, ok := mi.slotOf[peer]
	if !ok || j == slot {
		return
	}
	if o := mi.setters[j]; o.covered {
		ms.recheckPair(mi, slot, s, j, o)
	}
}

// recheckPair recomputes s's allow bit toward o and transitions the
// reciprocity link if it flipped.
func (ms *MeshState) recheckPair(mi *meshIXP, slot int, s *meshSetter, j int, o *meshSetter) {
	sa := s.filter.Allows(o.asn)
	s.allow.setTo(j, sa)
	linked := sa && o.allow.test(slot)
	if linked == s.links.test(j) {
		return
	}
	if linked {
		s.links.set(j)
		o.links.set(slot)
		ms.addLink(mi, s.asn, o.asn)
	} else {
		s.links.clear(j)
		o.links.clear(slot)
		ms.removeLink(mi, s.asn, o.asn)
	}
}

// addLink brings a link up at mi: the per-IXP link set changes
// immediately (only the worker owning mi reads it), the global
// attribution update is buffered for the ordered commit.
func (ms *MeshState) addLink(mi *meshIXP, a, b bgp.ASN) {
	key := topology.MakeLinkKey(a, b)
	mi.links[key] = true
	mi.events = append(mi.events, meshEvent{key: key, add: true})
}

// removeLink takes a link down at mi, buffering the global withdrawal.
func (ms *MeshState) removeLink(mi *meshIXP, a, b bgp.ASN) {
	key := topology.MakeLinkKey(a, b)
	delete(mi.links, key)
	mi.events = append(mi.events, meshEvent{key: key, add: false})
}

// commitAdd attributes a live link to mi's IXP, maintaining the sorted
// attribution list, the multi-IXP counter and the stability deltas. The
// first-touch changed entry is order-independent: whatever order the
// per-link events replay in, the first touch of a key happens before
// any event mutated its attribution, so it always records presence at
// the last close. The list is replaced, not edited: the previous one may
// be shared with a published Result.
func (ms *MeshState) commitAdd(mi *meshIXP, key topology.LinkKey) {
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

// commitRemove withdraws mi's attribution of a link, dropping the link
// entirely when no IXP attributes it anymore. Copy-on-write like
// commitAdd.
func (ms *MeshState) commitRemove(mi *meshIXP, key topology.LinkKey) {
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
// filters and sources. The Members slices alias the mesh's cached
// member lists; like every Result, snapshots are read-only views —
// which is what lets consecutive snapshots share structure: an IXP no
// setter joined, left or re-filtered at since the last call keeps its
// *IXPInference, an unchanged link set keeps its Links map and link
// index, and when nothing changed at all the previous *Result itself is
// returned, so whatever its consumers memoized on it (CoveredMembers,
// BuildIndex) rides along. A link set that did change carries the
// sorted keys that moved and the previous Result's index, so BuildIndex
// patches that index instead of sorting the mesh again. What changed is
// rebuilt on up to workers goroutines — one task per IXP plus one for
// the global link map, each writing disjoint freshly-allocated state.
//
//mlplint:frozen
func (ms *MeshState) Snapshot(workers int) *Result {
	prev := ms.snap
	shareLinks := prev != nil && len(ms.moved) == 0
	if shareLinks && !slices.ContainsFunc(ms.dict.Entries, func(e *IXPEntry) bool { return ms.byName[e.Name].stale }) {
		return prev
	}
	res := &Result{PerIXP: make(map[string]*IXPInference, len(ms.dict.Entries))}
	if shareLinks {
		res.Links, res.linkIndex, res.patch = prev.Links, prev.linkIndex, prev.patch
	} else if prev != nil && prev.linkIndex != nil {
		keys := make([]topology.LinkKey, 0, len(ms.moved))
		//mlplint:ordered sorted right below
		for k := range ms.moved {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, compareLinkKeys)
		res.patch = &indexPatch{base: prev.linkIndex, keys: keys}
	}
	clear(ms.moved)
	par.Run(workers, len(ms.dict.Entries)+1, func(t int) {
		if t == 0 {
			if !shareLinks {
				//mlplint:shared task 0 alone writes res.Links; every other task writes its own IXP's state
				res.Links = maps.Clone(ms.links)
			}
			return
		}
		mi := ms.byName[ms.dict.Entries[t-1].Name]
		if mi.snap != nil && !mi.stale {
			return
		}
		x := &IXPInference{
			Name:    mi.entry.Name,
			Members: mi.members,
			Filters: make(map[bgp.ASN]ixp.ExportFilter, mi.covered),
			Sources: make(map[bgp.ASN]DataSource, mi.covered),
			Links:   maps.Clone(mi.links),
		}
		for _, s := range mi.setters {
			if s.covered {
				x.Filters[s.asn] = s.filter
				x.Sources[s.asn] = ObsPassive
			}
		}
		mi.snap, mi.stale = x, false
	})
	for _, e := range ms.dict.Entries {
		res.PerIXP[e.Name] = ms.byName[e.Name].snap
	}
	ms.snap = res
	return res
}
