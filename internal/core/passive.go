package core

import (
	"mlpeering/internal/bgp"
	"mlpeering/internal/mrt"
	"mlpeering/internal/paths"
	"mlpeering/internal/relation"
	"mlpeering/internal/topology"
)

// DropStats counts paths removed by the §5 hygiene filters.
type DropStats struct {
	Bogon     int // reserved/private ASN in path
	Cycle     int // non-adjacent repeated AS (poisoning/misconfiguration)
	Transient int // update-only paths never seen in a stable table
}

// PassiveResult is the outcome of mining collector archives.
type PassiveResult struct {
	// Obs holds the per-setter community observations.
	Obs *Observations
	// Paths are the surviving public AS paths (collector-peer first),
	// interned: each distinct path is stored once in a shared arena.
	Paths paths.View
	// Links is the public-view AS link set extracted from Paths.
	Links map[topology.LinkKey]bool
	// PrefixOrigins maps each prefix seen in public data to its origin
	// AS (used by validation to pick query prefixes).
	PrefixOrigins map[bgp.Prefix]bgp.ASN
	// Rels is the relationship inference computed over Paths.
	Rels *relation.Inference
	// Dropped tallies filtered paths.
	Dropped DropStats
	// SetterUnresolved counts community observations discarded because
	// the RS setter could not be pinpointed (§4.2 case 1), and
	// IXPUnresolved those where no unique IXP could be identified.
	SetterUnresolved, IXPUnresolved int
	// Withdrawals counts withdrawn prefixes seen in the update trace and
	// WithdrawnOnlyUpdates the UPDATEs that carried only withdrawals (no
	// NLRI, no attributes). Withdrawals end route lifetimes in windowed
	// mode (RunPassiveWindows); in snapshot mode they are tallied so
	// announce/withdraw churn is no longer silently invisible.
	Withdrawals, WithdrawnOnlyUpdates int
}

// RunPassive mines MRT archives per §4.2: hygiene-filter the paths,
// identify RS communities and their IXP, pinpoint the setter, and
// record observations. Paths are interned on ingest, so the hygiene
// checks run once per distinct path instead of once per announcement.
func RunPassive(dumps []*mrt.Dump, updates []*mrt.BGP4MPMessage, dict *Dictionary) (*PassiveResult, error) {
	res := &PassiveResult{
		Obs:           NewObservations(),
		Links:         make(map[topology.LinkKey]bool),
		PrefixOrigins: make(map[bgp.Prefix]bgp.ASN),
	}

	store := paths.NewStore()
	recs := paths.NewRecords(store)
	var stableID []bool // path id -> seen in a stable RIB dump

	markStable := func(id paths.ID) {
		for int(id) >= len(stableID) {
			stableID = append(stableID, false)
		}
		stableID[id] = true
	}

	for _, d := range dumps {
		if d == nil || d.Index == nil {
			continue
		}
		for _, rib := range d.RIBs {
			for _, e := range rib.Entries {
				if e.Attrs == nil {
					continue
				}
				id := store.InternASPath(e.Attrs.ASPath)
				recs.Add(id, e.Attrs.Communities, rib.Prefix, true)
				markStable(id)
			}
		}
	}
	for _, u := range updates {
		upd, ok := u.Message.(*bgp.Update)
		if !ok {
			continue
		}
		res.Withdrawals += len(upd.Withdrawn)
		if upd.Attrs == nil || len(upd.NLRI) == 0 {
			if len(upd.Withdrawn) > 0 {
				res.WithdrawnOnlyUpdates++
			}
			continue
		}
		id := store.InternASPath(upd.Attrs.ASPath)
		for _, p := range upd.NLRI {
			recs.Add(id, upd.Attrs.Communities, p, false)
		}
	}

	// Hygiene flags (§5), computed once per distinct path.
	n := store.Len()
	badBogon := make([]bool, n)
	badCycle := make([]bool, n)
	for id := 0; id < n; id++ {
		p := store.Path(paths.ID(id))
		badBogon[id] = hasBogon(p)
		badCycle[id] = hasCycle(p)
	}
	for len(stableID) < n {
		stableID = append(stableID, false)
	}

	// Hygiene pass over the rows, building the public view (surviving
	// unique paths, links, prefix origins) in the same sweep.
	keptRow := make([]bool, recs.Len())
	seenPath := make([]bool, n)
	var kept []paths.ID
	for i := 0; i < recs.Len(); i++ {
		id := recs.PathID[i]
		switch {
		case badBogon[id]:
			res.Dropped.Bogon++
			continue
		case badCycle[id]:
			res.Dropped.Cycle++
			continue
		case !recs.Stable[i] && !stableID[id]:
			res.Dropped.Transient++
			continue
		}
		keptRow[i] = true
		p := store.Path(id)
		if len(p) == 0 {
			continue
		}
		if !seenPath[id] {
			seenPath[id] = true
			kept = append(kept, id)
			for j := 0; j+1 < len(p); j++ {
				res.Links[topology.MakeLinkKey(p[j], p[j+1])] = true
			}
		}
		res.PrefixOrigins[recs.Prefix[i]] = p[len(p)-1]
	}
	res.Paths = paths.NewView(store, kept)

	// Relationship inference over the public view, needed for the
	// setter disambiguation of case 3.
	res.Rels = relation.Infer(res.Paths)

	// Community mining. Attribution is per community shape, not per
	// row: collector archives repeat a few hundred distinct sets over
	// hundreds of thousands of rows (§4.3: a member tags all its
	// announcements alike). The memo dies with this call.
	attr := newAttributor(dict)
	for i := 0; i < recs.Len(); i++ {
		if !keptRow[i] || len(recs.Comms[i]) == 0 {
			continue
		}
		at := attr.of(recs.Comms[i])
		if at.entry == nil {
			if at.unresolved {
				res.IXPUnresolved++
			}
			continue
		}
		setter, ok := PinpointSetter(recs.Path(i), at.entry, res.Rels)
		if !ok {
			res.SetterUnresolved++
			continue
		}
		res.Obs.Add(at.entry.Name, setter, recs.Prefix[i], at.relComms, ObsPassive)
	}
	return res, nil
}

// attribution is everything §4.2 derives from a community set alone,
// whatever path and prefix carry it.
type attribution struct {
	// entry is the unique IXP whose scheme the set speaks, nil if none
	// (no candidate, or conflicting ones).
	entry *IXPEntry
	// relComms is entry's scheme-relevant subset and relKey its
	// canonical key; shared read-only by every user of the shape.
	relComms bgp.Communities
	relKey   string
	// unresolved: entry is nil although some scheme finds the set
	// relevant (what PassiveResult.IXPUnresolved counts, per row).
	unresolved bool
}

// attributor memoizes attribution by community set as announced (the
// appendCommsKey encoding: two announce orders of one set are two
// shapes with one answer) over one run and one dictionary snapshot. It
// is the only caller of IdentifyIXP on the mining paths, batch and
// incremental. The map is bounded by the distinct shapes seen.
type attributor struct {
	dict *Dictionary
	memo map[string]attribution
	key  []byte // probe scratch: a hit allocates nothing
}

func newAttributor(dict *Dictionary) *attributor {
	return &attributor{dict: dict, memo: make(map[string]attribution)}
}

// of returns the attribution of cs, computing it on first sight.
func (a *attributor) of(cs bgp.Communities) attribution {
	a.key = appendCommsKey(a.key[:0], cs)
	if at, ok := a.memo[string(a.key)]; ok {
		return at
	}
	var at attribution
	if entry, ok := a.dict.IdentifyIXP(cs); ok {
		at.entry = entry
		at.relComms = entry.Scheme.RelevantCommunities(cs)
		at.relKey = at.relComms.Dedup().String()
	} else {
		at.unresolved = anySchemeRelevant(a.dict, cs)
	}
	a.memo[string(a.key)] = at
	return at
}

// PinpointSetter identifies which AS on the path applied the RS
// communities (§4.2):
//
//  1. fewer than two IXP participants on the path: unresolvable;
//  2. exactly two: the one closest to the origin;
//  3. more than two: the participant pair with a p2p relationship is the
//     route-server crossing; the setter is its origin-side AS.
func PinpointSetter(path []bgp.ASN, entry *IXPEntry, rels relation.Oracle) (bgp.ASN, bool) {
	var positions []int
	for i, a := range path {
		if entry.IsMember(a) {
			positions = append(positions, i)
		}
	}
	switch {
	case len(positions) < 2:
		return 0, false
	case len(positions) == 2:
		// Closest to the origin = rightmost.
		return path[positions[1]], true
	default:
		// Adjacent member pairs with an inferred p2p relationship; the
		// setter is the origin-side member of that pair.
		for i := len(positions) - 1; i > 0; i-- {
			l, r := positions[i-1], positions[i]
			if r != l+1 {
				continue
			}
			if rels != nil && rels.Relationship(path[l], path[r]) == relation.RelP2P {
				return path[r], true
			}
		}
		return 0, false
	}
}

func anySchemeRelevant(dict *Dictionary, cs bgp.Communities) bool {
	for _, e := range dict.Entries {
		if len(e.Scheme.RelevantCommunities(cs)) > 0 {
			return true
		}
	}
	return false
}

func hasBogon(path []bgp.ASN) bool {
	for _, a := range path {
		if !a.Routable() {
			return true
		}
	}
	return false
}

// hasCycle reports a repeated AS. Paths arrive prepending-collapsed, so
// any repeat is a non-adjacent one. Real paths are a handful of hops:
// the pairwise scan allocates nothing; only an absurdly long path from
// a hostile archive takes the set, keeping the check linear.
func hasCycle(path []bgp.ASN) bool {
	if len(path) > 64 {
		seen := make(map[bgp.ASN]bool, len(path))
		for _, a := range path {
			if seen[a] {
				return true
			}
			seen[a] = true
		}
		return false
	}
	for i := 1; i < len(path); i++ {
		for _, b := range path[:i] {
			if b == path[i] {
				return true
			}
		}
	}
	return false
}
