// Delta-maintained windowed mining. Announce/withdraw events apply as
// +/- deltas to reference-counted (setter, member, prefix-group)
// observation counts kept in one record per (IXP, setter), so a window's
// ML mesh is derived from the maintained store instead of re-mining
// every live route. Routes are grouped by their (path, community-set)
// shape; each group's hygiene flags, IXP attribution and — when the §4.2
// pinpointing is relationship-independent — its setter are derived
// once, and only the relationship-dependent groups (three or more IXP
// participants on the path) are re-pinpointed at window close against
// the incrementally maintained relation oracle.
package core

import (
	"slices"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
	"mlpeering/internal/par"
	"mlpeering/internal/paths"
	"mlpeering/internal/relation"
)

// obsSet is one counted community set observed for a (setter, prefix).
type obsSet struct {
	key string // canonical (sorted, dedup'd) encoding
	cs  bgp.Communities
	n   int
}

// prefixDelta holds the counted community sets of one (setter, prefix).
// Disagreement across feeders is rare (§4.3), so the set list is almost
// always length one; entries whose count returns to zero are pruned so
// the store tracks the live table, not the all-time history.
type prefixDelta struct {
	total int
	sets  []obsSet
}

// winner returns the canonical representative among the live sets: the
// lexicographically smallest key with a positive count. Deterministic
// and independent of insertion order, so a maintained store and one
// rebuilt from scratch agree byte-for-byte.
func (p *prefixDelta) winner() (string, bgp.Communities, bool) {
	bestKey, bestIdx := "", -1
	for i := range p.sets {
		if p.sets[i].n > 0 && (bestIdx < 0 || p.sets[i].key < bestKey) {
			bestKey, bestIdx = p.sets[i].key, i
		}
	}
	if bestIdx < 0 {
		return "", nil, false
	}
	return bestKey, p.sets[bestIdx].cs, true
}

// setterDelta is the one record of an (IXP, setter). It lives from the
// setter's first observation at the IXP to the end of the run, so there
// are at most as many as the dictionary has (IXP, member) pairs.
// votes maintains the majority-vote tally incrementally: votes[k]
// counts the prefixes whose winning community set has canonical key k,
// adjusted whenever a prefix's winner transitions, and holds as its
// representative the set of the latest transition into k; so a vote
// costs O(distinct sets) instead of O(prefixes).
type setterDelta struct {
	x        *ixpDelta
	asn      bgp.ASN
	prefixes map[bgp.Prefix]*prefixDelta
	active   int // prefixes with a positive total
	votes    map[string]voteClass
	dirty    bool // queued in the store's dirty list since the last Apply

	// meshCovered and meshFilter are what the last MeshState.Apply
	// derived from the tally: the state the mesh's links describe.
	// coveredAt is the record's position in its IXP's covered list
	// while meshCovered holds.
	meshCovered bool
	meshFilter  ixp.ExportFilter
	coveredAt   int
}

// filter reconstructs the setter's export filter by majority vote over
// its live per-prefix community sets, like Observations.CoveredSetters:
// each live prefix votes its canonical community set, the most voted
// (ties to the smallest key) wins. ok is false while no prefix is live.
func (s *setterDelta) filter(scheme ixp.Scheme) (f ixp.ExportFilter, ok bool) {
	if s.active == 0 {
		return ixp.ExportFilter{}, false
	}
	bestKey, best := "", voteClass{votes: -1}
	for k, v := range s.votes {
		if v.votes > best.votes || (v.votes == best.votes && k < bestKey) {
			bestKey, best = k, v
		}
	}
	return ixp.FilterFromCommunities(best.repr, scheme), true
}

// ixpDelta is one IXP's setter records and the mesh state derived from
// them. Its live links are the keys of MeshState.links whose
// attribution names it.
type ixpDelta struct {
	entry   *IXPEntry
	members []bgp.ASN // entry.Members(), cached by newMeshState
	// alone is {entry.Name} at capacity 1, made by newMeshState: the one
	// attribution list every link up at this IXP alone shares.
	alone   []string
	setters map[bgp.ASN]*setterDelta
	records []*setterDelta // setters' records in creation order
	covered []*setterDelta // the records with meshCovered, in no order

	// snap is the IXPInference the last MeshState.Snapshot materialized;
	// stale records that a setter joined, left or changed filter since,
	// i.e. that snap no longer describes this state.
	snap  *IXPInference
	stale bool
}

// setCovered adds s to x's covered list or removes it, as MeshState
// flips s.meshCovered to covered.
func (x *ixpDelta) setCovered(s *setterDelta, covered bool) {
	if covered {
		s.coveredAt = len(x.covered)
		x.covered = append(x.covered, s)
		return
	}
	last := x.covered[len(x.covered)-1]
	x.covered[s.coveredAt], last.coveredAt = last, s.coveredAt
	x.covered = x.covered[:len(x.covered)-1]
}

// DeltaObservations is a reference-counted observation store: the
// C_{a,p} of §4.1 step 3 maintained under announce (+1) and withdraw
// (-1) deltas. It implements ObservationSource, so InferLinks derives
// the per-window mesh from it directly. It also lists the records whose
// counts changed, in dirtying order, so MeshState re-derives only those
// at window close.
type DeltaObservations struct {
	ixps  []*ixpDelta // one per dictionary entry, in dictionary order
	byIXP map[string]*ixpDelta
	dirty []*setterDelta
}

// newDeltaObservations returns an empty store over the dictionary's
// IXPs.
func newDeltaObservations(dict *Dictionary) *DeltaObservations {
	o := &DeltaObservations{byIXP: make(map[string]*ixpDelta, len(dict.Entries))}
	for _, e := range dict.Entries {
		x := &ixpDelta{entry: e, setters: make(map[bgp.ASN]*setterDelta)}
		o.ixps = append(o.ixps, x)
		o.byIXP[e.Name] = x
	}
	return o
}

// add applies one counted observation delta at x, one of the store's
// IXP records.
func (o *DeltaObservations) add(x *ixpDelta, setter bgp.ASN, prefix bgp.Prefix, key string, cs bgp.Communities, delta int) {
	s := x.setters[setter]
	if s == nil {
		s = &setterDelta{
			x:        x,
			asn:      setter,
			prefixes: make(map[bgp.Prefix]*prefixDelta),
			votes:    make(map[string]voteClass),
		}
		x.setters[setter] = s
		x.records = append(x.records, s)
	}
	if !s.dirty {
		s.dirty = true
		o.dirty = append(o.dirty, s)
	}
	p := s.prefixes[prefix]
	if p == nil {
		p = &prefixDelta{}
		s.prefixes[prefix] = p
	}
	oldKey, _, oldLive := p.winner()
	found := false
	for i := range p.sets {
		if p.sets[i].key == key {
			if p.sets[i].n += delta; p.sets[i].n == 0 {
				p.sets = append(p.sets[:i], p.sets[i+1:]...)
			}
			found = true
			break
		}
	}
	if !found {
		p.sets = append(p.sets, obsSet{key: key, cs: cs, n: delta})
	}
	if newKey, newCS, newLive := p.winner(); oldLive != newLive || oldKey != newKey {
		if oldLive {
			if v := s.votes[oldKey]; v.votes == 1 {
				delete(s.votes, oldKey)
			} else {
				v.votes--
				s.votes[oldKey] = v
			}
		}
		if newLive {
			v := s.votes[newKey]
			s.votes[newKey] = voteClass{repr: newCS, votes: v.votes + 1}
		}
	}
	wasLive := p.total > 0
	p.total += delta
	if live := p.total > 0; live != wasLive {
		if live {
			s.active++
		} else {
			s.active--
		}
	}
	// Prune dead prefixes: a record's size must track the live table,
	// not the trace's all-time observation history.
	if p.total == 0 && len(p.sets) == 0 {
		delete(s.prefixes, prefix)
	}
}

// CoveredSetters returns the setters with a live prefix at e's IXP,
// ascending, each with its majority-vote filter (setterDelta.filter, a
// scan of its distinct community sets) and passive coverage: the
// windowed pipeline only ever mines collector data.
func (o *DeltaObservations) CoveredSetters(e *IXPEntry) []CoveredSetter {
	x := o.byIXP[e.Name]
	if x == nil {
		return nil
	}
	var out []CoveredSetter
	for _, s := range x.records {
		if f, ok := s.filter(e.Scheme); ok {
			out = append(out, CoveredSetter{ASN: s.asn, Filter: f, Source: ObsPassive})
		}
	}
	slices.SortFunc(out, compareCovered)
	return out
}

// windowGroup is the derived state of one distinct (path, communities)
// route shape, stored in windowMiner.groups under shapeKey{path, cid}.
// It lives from the announce that creates it to the first window close
// that finds no live route carrying it. Everything but the
// relationship-dependent setter is fixed at creation: at is the miner's
// attribution of the comms set (its ID, the attributor's read-only copy,
// the IXP and the relevant subset), and x that IXP's record in the
// miner's observation store. refs tracks the live routes
// currently carrying the shape, and byPrefix, for a relsDep shape only,
// their prefixes: a re-pinpoint moves those counts, and nothing else
// ever reads them.
type windowGroup struct {
	path paths.ID
	at   attribution
	x    *ixpDelta // nil unless at.entry is set

	bogon, cycle, empty bool
	relsDep             bool // pinpointing consults the relation oracle
	resolved            bool
	setter              bgp.ASN

	refs     int
	dying    bool               // listed in windowMiner.dying since refs hit zero
	byPrefix map[bgp.Prefix]int // nil unless relsDep
}

// mineable reports whether the shape can contribute observations at
// all: it survived hygiene and resolved to a unique IXP.
func (g *windowGroup) mineable() bool {
	return !g.bogon && !g.cycle && !g.empty && g.at.entry != nil
}

// keptPath reports whether the shape's path belongs to the public view
// relationship inference runs over.
func (g *windowGroup) keptPath() bool { return !g.bogon && !g.cycle && !g.empty }

// windowMiner maintains the incremental mining state across a windowed
// run: the live table, the route groups, the refcounted observation
// store, the live distinct-path counts feeding the relation oracle, and
// the hygiene drop tallies over the current live table.
type windowMiner struct {
	dict  *Dictionary
	store *paths.Store

	// groups is one flat map from (path ID, comms ID) to the shape's
	// group: a probe hashes two integers. After every close it holds
	// exactly the live shapes.
	groups   map[shapeKey]*windowGroup
	relsDeps []*windowGroup // groups whose setter depends on the oracle

	// attr memoizes IXP attribution per comms set as announced and
	// numbers those sets densely: the number is the comms half of a
	// shape's key, and many paths carry the same set, so the dominant
	// identifyIXP cost of group creation becomes a map hit.
	attr *attributor

	obs  *DeltaObservations
	rel  *relation.Incremental // nil in remineLiveTable's miner
	mesh *MeshState            // nil in remineLiveTable's miner
	live *liveTable            // each occupied slot's shape; nil in remineLiveTable's miner

	// tallied is set once obs follows every route delta. The incremental
	// miner keeps no per-route tally before its first close, which seeds
	// the empty store in bulk from the live table (tallyLive).
	tallied bool

	// pathLive counts the live kept routes per path, indexed by the
	// store's dense IDs and grown as the store grows.
	pathLive []int32

	epoch int // window closes so far
	// dying lists, once each, the groups whose refs hit zero since the
	// last close; the close drops those still at zero.
	dying []*windowGroup

	dropBogon, dropCycle int
}

// newWindowMiner returns an empty miner. rel may be nil, in which case
// the caller owns relation maintenance, setter resolution and mesh
// derivation (remineLiveTable); otherwise the miner maintains the
// reciprocity mesh incrementally through a MeshState over the
// observation store's records.
func newWindowMiner(dict *Dictionary, store *paths.Store, rel *relation.Incremental) *windowMiner {
	m := &windowMiner{
		dict:   dict,
		store:  store,
		groups: make(map[shapeKey]*windowGroup),
		attr:   newAttributor(dict),
		obs:    newDeltaObservations(dict),
		rel:    rel,
	}
	if rel != nil {
		m.mesh = newMeshState(m.obs)
		m.live = newLiveTable()
	} else {
		m.tallied = true
	}
	return m
}

// shapeKey is a route shape's key in windowMiner.groups: its path's
// store ID and its comms set's attributor ID.
type shapeKey struct {
	path  paths.ID
	comms uint32
}

// appendCommsKey appends the canonical encoding of a community set as
// announced (order preserved: it keys the route shape, not the semantic
// set) to b, for allocation-free probing of the attributor's memo.
func appendCommsKey(b []byte, cs bgp.Communities) []byte {
	for _, c := range cs {
		b = append(b, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
	}
	return b
}

// shape returns (creating on first sight) the derived group of a route
// shape. The attributor numbers comms (a memo hit allocates nothing),
// and the group is probed under the (path, comms) ID pair; a new group
// shares the attributor's copy of comms. A new mineable group resolves
// its setter immediately when the pinpointing is
// relationship-independent, or against the current oracle otherwise
// (the next close re-pins it where that oracle's p2p labels move).
func (m *windowMiner) shape(path paths.ID, comms bgp.Communities) *windowGroup {
	at := m.attr.of(comms)
	k := shapeKey{path, at.id}
	if g, ok := m.groups[k]; ok {
		return g
	}
	g := &windowGroup{path: path, at: at}
	if at.entry != nil {
		g.x = m.obs.byIXP[at.entry.Name]
	}
	p := m.store.Path(path)
	g.empty = len(p) == 0
	g.bogon = hasBogon(p)
	g.cycle = hasCycle(p)
	if g.mineable() {
		var buf [8]int
		positions := memberPositions(buf[:0], p, at.entry)
		g.relsDep = len(positions) > 2
		if g.relsDep {
			g.byPrefix = make(map[bgp.Prefix]int)
			m.relsDeps = append(m.relsDeps, g)
			if m.rel != nil {
				g.setter, g.resolved = pinpointAt(p, positions, m.rel)
			}
		} else {
			g.setter, g.resolved = pinpointAt(p, positions, nil)
		}
	}
	m.groups[k] = g
	return g
}

// set puts g in the live slot k, applying the withdrawal of the route it
// replaces and the announce of g.
func (m *windowMiner) set(k slotKey, g *windowGroup) {
	prefix := m.live.prefixes[k.pid]
	if old := m.live.set(k.peer, k.pid, g); old != nil {
		m.apply(old, prefix, -1)
	}
	m.apply(g, prefix, 1)
}

// del empties the live slot k, applying the withdrawal of its route.
func (m *windowMiner) del(k slotKey) {
	if old := m.live.del(k.peer, k.pid); old != nil {
		m.apply(old, m.live.prefixes[k.pid], -1)
	}
}

// apply registers one live-route delta (+1 announce, -1 withdraw) for
// the route shape at the given prefix.
func (m *windowMiner) apply(g *windowGroup, prefix bgp.Prefix, delta int) {
	if g.refs += delta; g.refs == 0 && !g.dying {
		g.dying = true
		m.dying = append(m.dying, g)
	}
	if g.byPrefix != nil {
		if n := g.byPrefix[prefix] + delta; n == 0 {
			delete(g.byPrefix, prefix)
		} else {
			g.byPrefix[prefix] = n
		}
	}
	switch {
	case g.bogon:
		m.dropBogon += delta
	case g.cycle:
		m.dropCycle += delta
	}
	if g.keptPath() {
		if n := int(g.path) + 1; n > len(m.pathLive) {
			m.pathLive = append(m.pathLive, make([]int32, n-len(m.pathLive))...)
		}
		before := m.pathLive[g.path]
		now := before + int32(delta)
		m.pathLive[g.path] = now
		if m.rel != nil {
			if before == 0 && now > 0 {
				m.rel.AddPath(g.path)
			} else if before > 0 && now == 0 {
				m.rel.RemovePath(g.path)
			}
		}
	}
	if m.tallied && g.mineable() && g.resolved {
		m.obs.add(g.x, g.setter, prefix, g.at.relKey, g.at.relComms, delta)
	}
}

// tallyLive seeds the empty observation store in bulk from the live
// table: +1 for each occupied slot whose shape is mineable and resolved,
// the counts apply would have made route by route.
func (m *windowMiner) tallyLive() {
	for pid, row := range m.live.rows {
		prefix := m.live.prefixes[pid]
		for _, s := range row {
			if g := s.g; g.mineable() && g.resolved {
				m.obs.add(g.x, g.setter, prefix, g.at.relKey, g.at.relComms, 1)
			}
		}
	}
}

// moveContributions shifts all of g's live observation counts from its
// recorded (resolved, setter) state to the freshly pinpointed one.
func (m *windowMiner) moveContributions(g *windowGroup, resolved bool, setter bgp.ASN) {
	if g.resolved == resolved && (!resolved || g.setter == setter) {
		return
	}
	if g.resolved {
		for p, n := range g.byPrefix {
			m.obs.add(g.x, g.setter, p, g.at.relKey, g.at.relComms, -n)
		}
	}
	g.resolved, g.setter = resolved, setter
	if g.resolved {
		for p, n := range g.byPrefix {
			m.obs.add(g.x, g.setter, p, g.at.relKey, g.at.relComms, n)
		}
	}
}

// closeWindow derives one window's inference outcome from the
// maintained state: commit the relation oracle, re-pinpoint the
// relationship-dependent groups against it, apply the dirtied setters
// to the maintained reciprocity mesh, and read the window's counters
// off the maintained state. The mesh is not snapshotted here, so the
// close allocates O(churn), not O(mesh); w.Materialize does that on
// demand. The first close also seeds the observation store from the
// live table and applies it to the empty mesh. That tally and Apply
// touch only the store and the mesh, and the oracle's Commit (its bulk
// seed) only the oracle, so the two run side by side and join before
// the re-pinpoint. The re-pinpoint then moves the counts the tally
// made, and the close's Apply re-derives the records it dirtied, as on
// any other close.
func (m *windowMiner) closeWindow(w *PassiveWindow) {
	if m.tallied {
		m.rel.Commit()
	} else {
		par.Run(2, func(task int) {
			if task == 0 {
				m.rel.Commit()
			} else {
				m.tallyLive()
				m.mesh.Apply()
			}
		})
		m.tallied = true
	}
	m.sweepDeadShapes()
	// Re-pinpoint the live rels-dependent shapes. Every listed shape was
	// pinned against the previous oracle, at the last close or at its
	// creation inside the window, and pinpointSetter reads only the p2p
	// labels of adjacent hops: a pin moves only where the Commit flipped
	// one of those labels.
	if m.rel.P2PFlips() > 0 {
		for _, g := range m.relsDeps {
			if !m.p2pFlippedOn(g.path) {
				continue
			}
			setter, ok := pinpointSetter(m.store.Path(g.path), g.at.entry, m.rel)
			m.moveContributions(g, ok, setter)
		}
	}
	w.Dropped.Bogon = m.dropBogon
	w.Dropped.Cycle = m.dropCycle
	w.RelLinks = m.rel.LinkCount()
	w.P2PRels = m.rel.P2PCount()
	m.mesh.Apply()
	w.MeshLinks = m.mesh.TotalLinks()
	w.Stability = m.mesh.CloseStability()
	m.epoch++
	w.Result, w.miner, w.epoch = nil, m, m.epoch
}

// p2pFlippedOn reports whether the last Commit flipped the p2p label
// of a pair of adjacent hops on the path.
func (m *windowMiner) p2pFlippedOn(id paths.ID) bool {
	p := m.store.Path(id)
	for i := 0; i+1 < len(p); i++ {
		if m.rel.P2PFlipped(p[i], p[i+1]) {
			return true
		}
	}
	return false
}

// sweepDeadShapes drops every shape that died since the last close and
// is still dead from the lookup map, and compacts the rels-dependent
// ones out of relsDeps, so both track the live shape set, not the
// trace's all-time one. A route that brings a swept shape back derives
// it afresh through shape.
func (m *windowMiner) sweepDeadShapes() {
	for _, g := range m.dying {
		g.dying = false
		if g.refs > 0 {
			continue
		}
		delete(m.groups, shapeKey{g.path, g.at.id})
	}
	clear(m.dying)
	m.dying = m.dying[:0]
	live := m.relsDeps[:0]
	for _, g := range m.relsDeps {
		if g.refs > 0 {
			live = append(live, g)
		}
	}
	clear(m.relsDeps[len(live):])
	m.relsDeps = live
}

// countP2P tallies p2p-labelled links through the allocation-free
// iterator.
func countP2P(rels relation.Oracle) int {
	n := 0
	rels.ForEachLink(func(_ bgp.LinkKey, r relation.Rel) bool {
		if r == relation.RelP2P {
			n++
		}
		return true
	})
	return n
}
