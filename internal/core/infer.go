package core

import (
	"slices"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
	"mlpeering/internal/topology"
)

// IXPInference is the per-IXP outcome of steps 4-5: who was covered
// and with which filter. The links it yields live in the Result's one
// attribution map (Result.Links; Result.IXPLinks reads one IXP's).
// Inferences are built by InferLinks and MeshState.Snapshot and are
// read-only views afterwards.
//
//mlplint:frozen
type IXPInference struct {
	Name string
	// Members is the best-known RS member list used for inference.
	Members []bgp.ASN
	// Covered lists the members with reconstructed filters (the keys
	// of Filters), ascending.
	Covered []bgp.ASN
	// Filters holds the reconstructed export filter of every covered
	// member.
	Filters map[bgp.ASN]ixp.ExportFilter
	// Sources records how each covered member was observed.
	Sources map[bgp.ASN]DataSource
}

// PassiveCount and ActiveCount split coverage by source; members seen
// by both count as passive (they would not have been queried actively
// under equation 2).
func (x *IXPInference) PassiveCount() int {
	n := 0
	for _, s := range x.Sources {
		if s&ObsPassive != 0 {
			n++
		}
	}
	return n
}

// ActiveCount counts members covered only by active queries.
func (x *IXPInference) ActiveCount() int {
	n := 0
	for _, s := range x.Sources {
		if s&ObsPassive == 0 && s&ObsActive != 0 {
			n++
		}
	}
	return n
}

// Result is the complete inference outcome: a read-only view once its
// builder (InferLinks or MeshState.Snapshot) returns.
//
//mlplint:frozen
type Result struct {
	PerIXP map[string]*IXPInference
	// Links maps every inferred link to the IXPs it was inferred at
	// (multi-IXP links are the overlap discussed with Table 2).
	Links map[topology.LinkKey][]string

	// linkIndex is the index MeshState.Snapshot builds with the Result;
	// nil on an InferLinks Result.
	linkIndex *LinkIndex
}

// BuildIndex returns the link index MeshState.Snapshot built with r or,
// for an InferLinks Result, a fresh one per call. It writes nothing, so
// goroutines may call it on a shared Result.
func (r *Result) BuildIndex() *LinkIndex {
	if r.linkIndex != nil {
		return r.linkIndex
	}
	return newLinkIndex(r)
}

// TotalLinks returns the number of distinct links.
func (r *Result) TotalLinks() int { return len(r.Links) }

// MultiIXPLinks returns how many links appear at more than one IXP.
func (r *Result) MultiIXPLinks() int {
	if r.linkIndex != nil {
		return r.linkIndex.MultiIXP
	}
	n := 0
	for _, ixps := range r.Links {
		if len(ixps) > 1 {
			n++
		}
	}
	return n
}

// IXPLinks returns the links inferred at the named IXP in ascending
// (A, B) order (Table 2's "Links" column is its length); nil for an
// IXP with none or a name the Result does not know. It walks the whole
// attribution map.
func (r *Result) IXPLinks(ixpName string) []topology.LinkKey {
	var out []topology.LinkKey
	for k, ixps := range r.Links {
		if slices.Contains(ixps, ixpName) {
			out = append(out, k)
		}
	}
	slices.SortFunc(out, topology.CompareLinkKeys)
	return out
}

// ObservationSource is the read side of an observation store: what
// InferLinks needs to reconstruct filters and infer the mesh. It is
// implemented by the snapshot Observations and by the delta-maintained
// DeltaObservations of the incremental windowed pipeline.
type ObservationSource interface {
	// Setters returns the covered RS members of an IXP in ascending
	// order.
	Setters(ixpName string) []bgp.ASN
	// Filter reconstructs the setter's export filter by majority vote
	// over its per-prefix community sets.
	Filter(ixpName string, setter bgp.ASN, scheme ixp.Scheme) (ixp.ExportFilter, bool)
	// Source returns how a setter was covered (0 if not covered).
	Source(ixpName string, setter bgp.ASN) DataSource
}

// InferLinks executes steps 4-5 of §4.1 over the merged observations:
// reconstruct each covered member's export filter, build its allow set
// N_a, and infer a p2p link between a and a' iff each allows the other
// (the reciprocity rule).
//
//mlplint:frozen
func InferLinks(dict *Dictionary, obs ObservationSource) *Result {
	res := &Result{
		PerIXP: make(map[string]*IXPInference),
		Links:  make(map[topology.LinkKey][]string),
	}
	for _, entry := range dict.Entries {
		x := &IXPInference{
			Name:    entry.Name,
			Members: entry.Members(),
			Filters: make(map[bgp.ASN]ixp.ExportFilter),
			Sources: make(map[bgp.ASN]DataSource),
		}
		res.PerIXP[entry.Name] = x

		for _, setter := range obs.Setters(entry.Name) {
			if !entry.IsMember(setter) {
				continue // a stray observation outside known connectivity
			}
			f, ok := obs.Filter(entry.Name, setter, entry.Scheme)
			if !ok {
				continue
			}
			x.Covered = append(x.Covered, setter)
			x.Filters[setter] = f
			x.Sources[setter] = obs.Source(entry.Name, setter)
		}

		for i, a := range x.Covered {
			fa := x.Filters[a]
			for _, b := range x.Covered[i+1:] {
				if reciprocal(a, fa, b, x.Filters[b]) {
					k := topology.MakeLinkKey(a, b)
					res.Links[k] = append(res.Links[k], entry.Name)
				}
			}
		}
	}
	for k := range res.Links {
		slices.Sort(res.Links[k])
	}
	return res
}

// reciprocal is §4.1 step 5's pair rule: two covered members of an IXP
// are linked when each one's export filter allows the other.
func reciprocal(a bgp.ASN, fa ixp.ExportFilter, b bgp.ASN, fb ixp.ExportFilter) bool {
	return fa.Allows(b) && fb.Allows(a)
}

// AppendMesh appends a canonical byte encoding of the inferred mesh to
// dst: every link in ascending (A, B) order with its sorted IXP
// attribution list. Two results over the same dictionary describe the
// same mesh iff their encodings are byte-equal; the windowed
// equivalence tests pin the incremental pipeline to the re-mine
// fallback with it.
func (r *Result) AppendMesh(dst []byte) []byte {
	if r.linkIndex != nil {
		return appendMeshLinks(dst, r.linkIndex.Links)
	}
	return appendMeshLinks(dst, sortedLinks(r.Links))
}

// Fingerprint returns a 64-bit FNV-1a hash of the canonical mesh
// encoding (AppendMesh): two results over the same dictionary that
// describe the same mesh fingerprint equal. The serving tier keys
// HTTP ETags and stale-read detection on it, so the value must be a
// pure function of the inferred link set and its IXP attribution —
// never of wall-clock state. A Result out of MeshState.Snapshot answers
// from its index's sorted array instead of sorting again.
func (r *Result) Fingerprint() uint64 {
	if r.linkIndex != nil {
		return r.linkIndex.Fingerprint
	}
	return fingerprintLinks(sortedLinks(r.Links))
}

// SumPerIXPLinks adds up the per-IXP link counts (larger than
// TotalLinks by exactly the multi-IXP overlap, as in Table 2).
func (r *Result) SumPerIXPLinks() int {
	n := 0
	for _, ixps := range r.Links {
		n += len(ixps)
	}
	return n
}
