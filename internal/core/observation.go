package core

import (
	"maps"
	"slices"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
)

// DataSource tags how a community observation was obtained.
type DataSource int

// Data sources for observations.
const (
	ObsPassive DataSource = 1 << iota
	ObsActive
)

// Observations accumulates reachability data: per IXP, one record per
// RS setter holding the community sets seen on its prefix announcements
// and how it was observed. It is the C_{a,p} of §4.1 step 3, merged
// across passive and active collection.
type Observations struct {
	ixps map[string]map[bgp.ASN]*setterObs
}

// setterObs is the one record of an (IXP, setter): its per-prefix
// community sets (scheme-relevant subset) and the sources that saw it.
type setterObs struct {
	prefixes map[bgp.Prefix]bgp.Communities
	src      DataSource
}

// NewObservations returns an empty store.
func NewObservations() *Observations {
	return &Observations{ixps: make(map[string]map[bgp.ASN]*setterObs)}
}

// record returns the (IXP, setter) record, creating it on first sight.
func (o *Observations) record(ixpName string, setter bgp.ASN) *setterObs {
	m := o.ixps[ixpName]
	if m == nil {
		m = make(map[bgp.ASN]*setterObs)
		o.ixps[ixpName] = m
	}
	s := m[setter]
	if s == nil {
		s = &setterObs{prefixes: make(map[bgp.Prefix]bgp.Communities)}
		m[setter] = s
	}
	return s
}

// Add records one observation. Repeated observations of the same
// (ixp, setter, prefix) keep the latest community set.
func (o *Observations) Add(ixpName string, setter bgp.ASN, prefix bgp.Prefix, cs bgp.Communities, src DataSource) {
	s := o.record(ixpName, setter)
	s.prefixes[prefix] = cs.Clone()
	s.src |= src
}

// Merge folds other into o.
func (o *Observations) Merge(other *Observations) {
	for ixpName, setters := range other.ixps {
		for setter, r := range setters {
			s := o.record(ixpName, setter)
			for p, cs := range r.prefixes {
				s.prefixes[p] = cs.Clone()
			}
			s.src |= r.src
		}
	}
}

// Setters returns the covered RS members of an IXP in ascending order.
func (o *Observations) Setters(ixpName string) []bgp.ASN {
	return slices.Sorted(maps.Keys(o.ixps[ixpName]))
}

// CoveredSetters returns the setters observed at e's IXP, ascending,
// each with the export filter a majority vote over its per-prefix
// community sets reconstructs. The paper found announcements are
// remarkably consistent (<0.5% of members show any disagreement, §4.3),
// so the vote is almost always unanimous.
func (o *Observations) CoveredSetters(e *IXPEntry) []CoveredSetter {
	m := o.ixps[e.Name]
	out := make([]CoveredSetter, 0, len(m))
	var t voteTally
	for asn, s := range m {
		t.count(s.prefixes)
		out = append(out, CoveredSetter{ASN: asn, Filter: ixp.FilterFromCommunities(t.winner(), e.Scheme), Source: s.src})
	}
	slices.SortFunc(out, compareCovered)
	return out
}

// Covered reports whether any communities were observed for the setter.
func (o *Observations) Covered(ixpName string, setter bgp.ASN) bool {
	return o.ixps[ixpName][setter] != nil
}

// Prefixes returns the distinct prefixes observed for a setter in
// deterministic order: the P^passive_a of equation (2), reused by the
// active survey for multiplicity accounting without re-querying.
func (o *Observations) Prefixes(ixpName string, setter bgp.ASN) []bgp.Prefix {
	s := o.ixps[ixpName][setter]
	if s == nil {
		return nil
	}
	return slices.SortedFunc(maps.Keys(s.prefixes), bgp.ComparePrefixes)
}

// voteTally counts one setter's per-prefix community sets by class: two
// sets are one class when they carry the same values, whatever their
// order and multiplicity. Classes are keyed on the appendCommsKey
// encoding of the Dedup'd set, built in scratch buffers a tally reuses
// across prefixes and setters, so counting formats nothing.
type voteTally struct {
	classes map[string]*voteClass
	set     bgp.Communities // scratch: the Dedup'd set
	key     []byte          // scratch: its class key
}

// voteClass is one class of a tally: its votes and a member set. A
// setterDelta's incremental tally keeps one per canonical key too.
type voteClass struct {
	repr  bgp.Communities
	votes int
}

// count resets the tally to the votes of pm.
func (t *voteTally) count(pm map[bgp.Prefix]bgp.Communities) {
	if t.classes == nil {
		t.classes = make(map[string]*voteClass)
	}
	clear(t.classes)
	for _, cs := range pm {
		key := t.classKey(cs)
		if c := t.classes[string(key)]; c != nil {
			c.votes++
			continue
		}
		t.classes[string(key)] = &voteClass{repr: cs, votes: 1}
	}
}

// classKey returns cs's class key in the tally's scratch buffer, valid
// until the next call.
func (t *voteTally) classKey(cs bgp.Communities) []byte {
	t.set = append(t.set[:0], cs...)
	slices.Sort(t.set)
	t.set = slices.Compact(t.set)
	t.key = appendCommsKey(t.key[:0], t.set)
	return t.key
}

// winner returns a member of the most voted class. Ties go to the class
// whose Dedup'd set is smallest as text, which is not its value order
// ("no-export" sorts after "65535:65535" as text, before it as a value;
// so does "65000:9" against "65000:10"): only tied classes are
// formatted. Text is a total order over classes, so the winner does not
// depend on map order.
func (t *voteTally) winner() bgp.Communities {
	var best *voteClass
	bestText, formatted := "", false
	for _, c := range t.classes {
		switch {
		case best == nil || c.votes > best.votes:
			best, formatted = c, false
		case c.votes == best.votes:
			if !formatted {
				bestText, formatted = best.repr.Dedup().String(), true
			}
			if text := c.repr.Dedup().String(); text < bestText {
				best, bestText = c, text
			}
		}
	}
	return best.repr
}

// ConsistencyStats reports, per the §4.3 measurement, how many covered
// setters used differing community sets across their prefixes and what
// fraction of their prefixes deviated from their majority set.
type ConsistencyStats struct {
	Setters             int
	InconsistentSetters int
	DeviantPrefixFrac   float64 // among inconsistent setters
}

// Consistency computes ConsistencyStats for one IXP.
func (o *Observations) Consistency(ixpName string) ConsistencyStats {
	var st ConsistencyStats
	var deviantSum float64
	var t voteTally
	for _, setter := range o.Setters(ixpName) {
		pm := o.ixps[ixpName][setter].prefixes
		st.Setters++
		t.count(pm)
		if len(t.classes) <= 1 {
			continue
		}
		st.InconsistentSetters++
		top := 0
		for _, c := range t.classes {
			top = max(top, c.votes)
		}
		deviantSum += float64(len(pm)-top) / float64(len(pm))
	}
	if st.InconsistentSetters > 0 {
		st.DeviantPrefixFrac = deviantSum / float64(st.InconsistentSetters)
	}
	return st
}

// IXPs returns all IXP names with observations, sorted.
func (o *Observations) IXPs() []string {
	return slices.Sorted(maps.Keys(o.ixps))
}
