package core

import (
	"slices"
	"sort"

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

// Observations accumulates reachability data: per IXP and per RS setter,
// the community sets seen on its prefix announcements. It is the C_{a,p}
// of §4.1 step 3, merged across passive and active collection.
type Observations struct {
	// data[ixp][setter][prefix] = communities (scheme-relevant subset)
	data map[string]map[bgp.ASN]map[bgp.Prefix]bgp.Communities
	src  map[string]map[bgp.ASN]DataSource
}

// NewObservations returns an empty store.
func NewObservations() *Observations {
	return &Observations{
		data: make(map[string]map[bgp.ASN]map[bgp.Prefix]bgp.Communities),
		src:  make(map[string]map[bgp.ASN]DataSource),
	}
}

// Add records one observation. Repeated observations of the same
// (ixp, setter, prefix) keep the latest community set.
func (o *Observations) Add(ixpName string, setter bgp.ASN, prefix bgp.Prefix, cs bgp.Communities, src DataSource) {
	m := o.data[ixpName]
	if m == nil {
		m = make(map[bgp.ASN]map[bgp.Prefix]bgp.Communities)
		o.data[ixpName] = m
	}
	pm := m[setter]
	if pm == nil {
		pm = make(map[bgp.Prefix]bgp.Communities)
		m[setter] = pm
	}
	pm[prefix] = cs.Clone()

	sm := o.src[ixpName]
	if sm == nil {
		sm = make(map[bgp.ASN]DataSource)
		o.src[ixpName] = sm
	}
	sm[setter] |= src
}

// Merge folds other into o.
func (o *Observations) Merge(other *Observations) {
	for ixpName, setters := range other.data {
		for setter, prefixes := range setters {
			for p, cs := range prefixes {
				o.Add(ixpName, setter, p, cs, other.src[ixpName][setter])
			}
		}
	}
}

// Setters returns the covered RS members of an IXP in ascending order.
func (o *Observations) Setters(ixpName string) []bgp.ASN {
	m := o.data[ixpName]
	out := make([]bgp.ASN, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Source returns how a setter was covered (0 if not covered).
func (o *Observations) Source(ixpName string, setter bgp.ASN) DataSource {
	return o.src[ixpName][setter]
}

// Covered reports whether any communities were observed for the setter.
func (o *Observations) Covered(ixpName string, setter bgp.ASN) bool {
	return len(o.data[ixpName][setter]) > 0
}

// Prefixes returns the distinct prefixes observed for a setter in
// deterministic order: the P^passive_a of equation (2), reused by the
// active survey for multiplicity accounting without re-querying.
func (o *Observations) Prefixes(ixpName string, setter bgp.ASN) []bgp.Prefix {
	pm := o.data[ixpName][setter]
	out := make([]bgp.Prefix, 0, len(pm))
	for p := range pm {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return bgp.ComparePrefixes(out[i], out[j]) < 0 })
	return out
}

// Filter reconstructs the setter's export filter by majority vote over
// its per-prefix community sets. The paper found announcements are
// remarkably consistent (<0.5% of members show any disagreement, §4.3),
// so the vote is almost always unanimous.
func (o *Observations) Filter(ixpName string, setter bgp.ASN, scheme ixp.Scheme) (ixp.ExportFilter, bool) {
	pm := o.data[ixpName][setter]
	if len(pm) == 0 {
		return ixp.ExportFilter{}, false
	}
	var t voteTally
	t.count(pm)
	return ixp.FilterFromCommunities(t.winner(), scheme), true
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

// voteClass is one class of a tally: its votes and a member set.
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
		pm := o.data[ixpName][setter]
		if len(pm) == 0 {
			continue
		}
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
	out := make([]string, 0, len(o.data))
	for name := range o.data {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
