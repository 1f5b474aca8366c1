// Delta-maintained windowed mining: the incremental counterpart of
// mineLiveTable. Announce/withdraw events apply as +/- deltas to
// reference-counted (setter, member, prefix-group) observation counts,
// so a window's ML mesh is derived from the maintained store instead of
// re-mining every live route. Routes are grouped by their (path,
// community-set) shape; each group's hygiene flags, IXP attribution and
// — when the §4.2 pinpointing is relationship-independent — its setter
// are derived once, and only the relationship-dependent groups (three
// or more IXP participants on the path) are re-pinpointed at window
// close against the incrementally maintained relation oracle.
package core

import (
	"slices"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
	"mlpeering/internal/paths"
	"mlpeering/internal/relation"
	"mlpeering/internal/topology"
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

// setterDelta aggregates one covered setter's per-prefix observations.
// votes/repr maintain the majority-vote tally incrementally: votes[k]
// counts the prefixes whose winning community set has canonical key k,
// adjusted whenever a prefix's winner transitions, so Filter costs
// O(distinct sets) instead of O(prefixes).
type setterDelta struct {
	prefixes map[bgp.Prefix]*prefixDelta
	active   int // prefixes with a positive total
	votes    map[string]int
	repr     map[string]bgp.Communities
	dirty    bool // queued in the store's dirty list since the last drain
}

// ixpDelta is one IXP's setter table.
type ixpDelta struct {
	setters map[bgp.ASN]*setterDelta
}

// DirtySetter names one (IXP, setter) whose observation counts changed
// since the last DrainDirty: the exact invalidation unit of the
// delta-maintained reciprocity mesh.
type DirtySetter struct {
	IXP    string
	Setter bgp.ASN
}

// DeltaObservations is a reference-counted observation store: the
// C_{a,p} of §4.1 step 3 maintained under announce (+1) and withdraw
// (-1) deltas. It implements ObservationSource, so InferLinks derives
// the per-window mesh from it directly; with dirty tracking enabled it
// additionally records which (IXP, setter) pairs changed, in dirtying
// order, so MeshState re-derives only those at window close.
type DeltaObservations struct {
	byIXP      map[string]*ixpDelta
	dirtyList  []DirtySetter
	trackDirty bool
}

// NewDeltaObservations returns an empty store.
func NewDeltaObservations() *DeltaObservations {
	return &DeltaObservations{byIXP: make(map[string]*ixpDelta)}
}

// TrackDirty turns on dirty-setter tracking (used by the incremental
// mesh; the remine fallback skips the bookkeeping).
func (o *DeltaObservations) TrackDirty() { o.trackDirty = true }

// DrainDirty appends the setters dirtied since the last drain to dst,
// in dirtying order, and resets the tracking. A setter pruned and
// re-created between drains may appear twice; consumers must dedup.
func (o *DeltaObservations) DrainDirty(dst []DirtySetter) []DirtySetter {
	dst = append(dst, o.dirtyList...)
	for _, d := range o.dirtyList {
		if x := o.byIXP[d.IXP]; x != nil {
			if s := x.setters[d.Setter]; s != nil {
				s.dirty = false
			}
		}
	}
	o.dirtyList = o.dirtyList[:0]
	return dst
}

// add applies one counted observation delta.
func (o *DeltaObservations) add(ixpName string, setter bgp.ASN, prefix bgp.Prefix, key string, cs bgp.Communities, delta int) {
	x := o.byIXP[ixpName]
	if x == nil {
		x = &ixpDelta{setters: make(map[bgp.ASN]*setterDelta)}
		o.byIXP[ixpName] = x
	}
	s := x.setters[setter]
	if s == nil {
		s = &setterDelta{
			prefixes: make(map[bgp.Prefix]*prefixDelta),
			votes:    make(map[string]int),
			repr:     make(map[string]bgp.Communities),
		}
		x.setters[setter] = s
	}
	if o.trackDirty && !s.dirty {
		s.dirty = true
		o.dirtyList = append(o.dirtyList, DirtySetter{IXP: ixpName, Setter: setter})
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
			if s.votes[oldKey]--; s.votes[oldKey] == 0 {
				delete(s.votes, oldKey)
				delete(s.repr, oldKey)
			}
		}
		if newLive {
			s.votes[newKey]++
			s.repr[newKey] = newCS
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
	// Prune dead state so Setters/Filter iterate the live view only:
	// per-window cost must track the live table, not the trace's
	// all-time observation history.
	if p.total == 0 && len(p.sets) == 0 {
		delete(s.prefixes, prefix)
	}
	if s.active == 0 && len(s.prefixes) == 0 {
		delete(x.setters, setter)
	}
}

// Setters returns the covered RS members of an IXP in ascending order.
func (o *DeltaObservations) Setters(ixpName string) []bgp.ASN {
	x := o.byIXP[ixpName]
	if x == nil {
		return nil
	}
	var out []bgp.ASN
	for setter, s := range x.setters {
		if s.active > 0 {
			out = append(out, setter)
		}
	}
	sortASNs(out)
	return out
}

// Filter reconstructs the setter's export filter by majority vote over
// its per-prefix community sets, exactly like Observations.Filter: each
// live prefix votes its canonical community set, the most voted (ties
// to the smallest key) wins. The tally is maintained incrementally by
// add, so the vote scan is over the distinct community sets (almost
// always one), not the setter's prefixes.
func (o *DeltaObservations) Filter(ixpName string, setter bgp.ASN, scheme ixp.Scheme) (ixp.ExportFilter, bool) {
	x := o.byIXP[ixpName]
	if x == nil {
		return ixp.ExportFilter{}, false
	}
	s := x.setters[setter]
	if s == nil || s.active == 0 {
		return ixp.ExportFilter{}, false
	}
	bestKey, bestVotes := "", -1
	for k, v := range s.votes {
		if v > bestVotes || (v == bestVotes && k < bestKey) {
			bestKey, bestVotes = k, v
		}
	}
	return ixp.FilterFromCommunities(s.repr[bestKey], scheme), true
}

// Source reports passive coverage: the windowed pipeline only ever
// mines collector data.
func (o *DeltaObservations) Source(ixpName string, setter bgp.ASN) DataSource {
	if x := o.byIXP[ixpName]; x != nil {
		if s := x.setters[setter]; s != nil && s.active > 0 {
			return ObsPassive
		}
	}
	return 0
}

// windowGroup is the derived state of one distinct (path, communities)
// route shape. Everything but the relationship-dependent setter is
// fixed at creation; refs and byPrefix track the live routes currently
// carrying the shape.
type windowGroup struct {
	path  paths.ID
	comms bgp.Communities
	ckey  string // canonical comms encoding: its slot under groups[path]

	bogon, cycle, empty bool
	entry               *IXPEntry // nil: no unique IXP attribution
	relKey              string    // canonical key of the scheme-relevant subset
	relComms            bgp.Communities
	relsDep             bool // pinpointing consults the relation oracle
	registered          bool // currently listed in windowMiner.relsDeps
	resolved            bool
	setter              bgp.ASN

	refs      int
	deadEpoch int  // window epoch at which refs last hit zero
	queued    bool // currently in windowMiner.deadQueue
	byPrefix  map[bgp.Prefix]int
}

// mineable reports whether the shape can contribute observations at
// all: it survived hygiene and resolved to a unique IXP.
func (g *windowGroup) mineable() bool {
	return !g.bogon && !g.cycle && !g.empty && g.entry != nil
}

// keptPath reports whether the shape's path belongs to the public view
// relationship inference runs over.
func (g *windowGroup) keptPath() bool { return !g.bogon && !g.cycle && !g.empty }

// windowMiner maintains the incremental mining state across a windowed
// run: the route groups, the refcounted observation store, the live
// distinct-path counts feeding the relation oracle, and the hygiene
// drop tallies over the current live table.
// deadShapeGrace is how many window closes a (path, comms) shape stays
// in the lookup map after its last live route withdrew. Shapes that
// flap back inside the grace period keep their derived state (hygiene
// flags, IXP attribution, relevant-community key); shapes dead longer
// are compacted away so the map tracks the recently-live shape set, not
// the trace's all-time one.
const deadShapeGrace = 2

// deadShape is one sweep-queue entry: the shape and the epoch whose
// close enqueued it.
type deadShape struct {
	g     *windowGroup
	epoch int
}

type windowMiner struct {
	dict  *Dictionary
	store *paths.Store

	// groups is keyed (path, canonical comms encoding); the two-level
	// shape lets callers probe with a scratch []byte key (string(b) map
	// access compiles allocation-free) before cloning anything.
	groups   map[paths.ID]map[string]*windowGroup
	relsDeps []*windowGroup // groups whose setter depends on the oracle

	// attr memoizes IXP attribution per comms shape: groups are keyed
	// per (path, comms) and many paths carry the same comms shape, so
	// the dominant IdentifyIXP cost of group creation becomes a map hit.
	attr *attributor

	obs  *DeltaObservations
	rel  *relation.Incremental // nil in remine mode
	mesh *MeshState            // nil in remine mode

	pathLive map[paths.ID]int

	epoch     int // window closes so far
	deadQueue []deadShape

	// stalePins records that a shape re-entered relsDeps since the last
	// close with a setter pinned against an older oracle, so the close
	// must re-pinpoint even when the oracle did not move.
	stalePins bool

	dropBogon, dropCycle int
}

// newWindowMiner returns an empty miner. rel may be nil, in which case
// the caller owns relation maintenance, setter resolution and mesh
// derivation (the remine fallback); otherwise the miner maintains the
// reciprocity mesh incrementally through a MeshState fed by the
// observation store's dirty-setter tracking.
func newWindowMiner(dict *Dictionary, store *paths.Store, rel *relation.Incremental) *windowMiner {
	m := &windowMiner{
		dict:     dict,
		store:    store,
		groups:   make(map[paths.ID]map[string]*windowGroup),
		attr:     newAttributor(dict),
		obs:      NewDeltaObservations(),
		rel:      rel,
		pathLive: make(map[paths.ID]int),
	}
	if rel != nil {
		m.obs.TrackDirty()
		m.mesh = NewMeshState(dict)
	}
	return m
}

// appendCommsKey appends the canonical encoding of a community set as
// announced (order preserved: it keys the route shape, not the semantic
// set) to b, for allocation-free probing of the shape map.
func appendCommsKey(b []byte, cs bgp.Communities) []byte {
	for _, c := range cs {
		b = append(b, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
	}
	return b
}

// commsKey materializes the canonical encoding as a string.
func commsKey(cs bgp.Communities) string {
	if len(cs) == 0 {
		return ""
	}
	return string(appendCommsKey(make([]byte, 0, 4*len(cs)), cs))
}

// group returns (creating on first sight) the derived group of a route
// shape. New mineable groups resolve their setter immediately when the
// pinpointing is relationship-independent, or against the current
// oracle otherwise (stale answers are corrected at window close).
func (m *windowMiner) group(path paths.ID, comms bgp.Communities, ckey string) *windowGroup {
	inner := m.groups[path]
	if inner == nil {
		inner = make(map[string]*windowGroup, 1)
		m.groups[path] = inner
	}
	if g, ok := inner[ckey]; ok {
		return g
	}
	g := &windowGroup{path: path, comms: comms, ckey: ckey, byPrefix: make(map[bgp.Prefix]int)}
	p := m.store.Path(path)
	g.empty = len(p) == 0
	g.bogon = hasBogon(p)
	g.cycle = hasCycle(p)
	if len(comms) > 0 {
		if at := m.attr.of(comms); at.entry != nil {
			g.entry = at.entry
			g.relComms = at.relComms
			g.relKey = at.relKey
			if g.mineable() {
				positions := 0
				for _, a := range p {
					if at.entry.IsMember(a) {
						positions++
					}
				}
				g.relsDep = positions > 2
			}
		}
	}
	if g.mineable() {
		if g.relsDep {
			g.registered = true
			m.relsDeps = append(m.relsDeps, g)
			if m.rel != nil {
				g.setter, g.resolved = PinpointSetter(p, g.entry, m.rel)
			}
		} else {
			g.setter, g.resolved = PinpointSetter(p, g.entry, nil)
		}
	}
	inner[ckey] = g
	return g
}

// shapeCount reports the number of live shape entries in the lookup map
// (test hook for the dead-shape sweep).
func (m *windowMiner) shapeCount() int {
	n := 0
	for _, inner := range m.groups {
		n += len(inner)
	}
	return n
}

// apply registers one live-route delta (+1 announce, -1 withdraw) for
// the route shape at the given prefix.
func (m *windowMiner) apply(g *windowGroup, prefix bgp.Prefix, delta int) {
	wasDead := g.refs == 0
	g.refs += delta
	// A rels-dependent shape coming back to life after closeWindow
	// compacted it away re-enters the re-pinpoint list (its recorded
	// setter may be stale relative to the current oracle; the next
	// window close corrects it, exactly like a freshly created shape).
	if wasDead && g.refs > 0 && g.relsDep && !g.registered {
		g.registered = true
		m.relsDeps = append(m.relsDeps, g)
		m.stalePins = true
	}
	if !wasDead && g.refs == 0 {
		g.deadEpoch = m.epoch
		if !g.queued {
			g.queued = true
			m.deadQueue = append(m.deadQueue, deadShape{g: g, epoch: m.epoch})
		}
	}
	if n := g.byPrefix[prefix] + delta; n == 0 {
		delete(g.byPrefix, prefix)
	} else {
		g.byPrefix[prefix] = n
	}
	switch {
	case g.bogon:
		m.dropBogon += delta
	case g.cycle:
		m.dropCycle += delta
	}
	if g.keptPath() {
		before := m.pathLive[g.path]
		now := before + delta
		if now == 0 {
			delete(m.pathLive, g.path)
		} else {
			m.pathLive[g.path] = now
		}
		if m.rel != nil {
			if before == 0 && now > 0 {
				m.rel.AddPath(g.path)
			} else if before > 0 && now == 0 {
				m.rel.RemovePath(g.path)
			}
		}
	}
	if g.mineable() && g.resolved {
		m.obs.add(g.entry.Name, g.setter, prefix, g.relKey, g.relComms, delta)
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
			m.obs.add(g.entry.Name, g.setter, p, g.relKey, g.relComms, -n)
		}
	}
	g.resolved, g.setter = resolved, setter
	if g.resolved {
		for p, n := range g.byPrefix {
			m.obs.add(g.entry.Name, g.setter, p, g.relKey, g.relComms, n)
		}
	}
}

// closeWindow derives one window's inference outcome from the
// maintained state: commit the relation oracle, re-pinpoint the
// relationship-dependent groups against it, apply the dirtied setters
// to the maintained reciprocity mesh, and read the window's counters
// off the maintained state. The mesh is not snapshotted here, so the
// close allocates O(churn), not O(mesh); w.Materialize does that on
// demand.
func (m *windowMiner) closeWindow(w *PassiveWindow) {
	m.rel.Commit()
	stale := m.stalePins
	m.stalePins = false
	// Re-pinpoint the live rels-dependent shapes, compacting dead ones
	// out of the list so per-window cost tracks the live shape set, not
	// the trace's all-time one (withdrawn shapes re-register in apply
	// if they come back). Every listed shape was pinned against the
	// previous oracle, at the last close or at its creation inside the
	// window, and PinpointSetter reads only the p2p labels of adjacent
	// hops: a pin moves only where the Commit flipped one of those
	// labels — unless a compacted shape came back with an older pin
	// (stalePins), which re-pins every shape.
	live := m.relsDeps[:0]
	for _, g := range m.relsDeps {
		if g.refs == 0 {
			g.registered = false
			continue
		}
		live = append(live, g)
	}
	for i := len(live); i < len(m.relsDeps); i++ {
		m.relsDeps[i] = nil
	}
	m.relsDeps = live
	if stale || m.rel.P2PFlips() > 0 {
		for _, g := range live {
			if !stale && !m.p2pFlippedOn(g.path) {
				continue
			}
			setter, ok := PinpointSetter(m.store.Path(g.path), g.entry, m.rel)
			m.moveContributions(g, ok, setter)
		}
	}
	w.Dropped.Bogon = m.dropBogon
	w.Dropped.Cycle = m.dropCycle
	w.RelLinks = m.rel.LinkCount()
	w.P2PRels = m.rel.P2PCount()
	m.mesh.Apply(m.obs)
	w.MeshLinks = m.mesh.TotalLinks()
	w.Stability = m.mesh.CloseStability()
	m.epoch++
	w.Result, w.miner, w.epoch = nil, m, m.epoch
	m.sweepDeadShapes()
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

// sweepDeadShapes compacts shapes whose refcount has been zero for at
// least deadShapeGrace window closes out of the lookup map. The queue
// is in enqueue order; a shape that died again more recently than the
// entry that carried it here is re-queued at its newest death epoch, so
// the grace period restarts on every flap. Requeued entries can land
// behind slightly newer ones, which only ever lengthens a shape's stay
// — the grace period is a lower bound.
func (m *windowMiner) sweepDeadShapes() {
	for len(m.deadQueue) > 0 {
		e := m.deadQueue[0]
		if e.epoch+deadShapeGrace > m.epoch {
			break
		}
		m.deadQueue[0] = deadShape{}
		m.deadQueue = m.deadQueue[1:]
		g := e.g
		g.queued = false
		if g.refs > 0 {
			continue
		}
		if g.deadEpoch+deadShapeGrace > m.epoch {
			g.queued = true
			m.deadQueue = append(m.deadQueue, deadShape{g: g, epoch: g.deadEpoch})
			continue
		}
		inner := m.groups[g.path]
		delete(inner, g.ckey)
		if len(inner) == 0 {
			delete(m.groups, g.path)
		}
	}
	if len(m.deadQueue) == 0 {
		m.deadQueue = nil // release the drained queue's backing array
	}
}

// countP2P tallies p2p-labelled links through the allocation-free
// iterator.
func countP2P(rels relation.Oracle) int {
	n := 0
	rels.ForEachLink(func(_ topology.LinkKey, r relation.Rel) bool {
		if r == relation.RelP2P {
			n++
		}
		return true
	})
	return n
}

// sortASNs sorts ascending in place.
func sortASNs(s []bgp.ASN) {
	slices.Sort(s)
}
