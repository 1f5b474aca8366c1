package core

import (
	"cmp"
	"slices"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
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
	// Covered lists the members with reconstructed filters, strictly
	// ascending by ASN.
	Covered []CoveredSetter
}

// CoveredSetter is one covered RS member of an IXP, the one fact §4.1
// step 4 keeps per member: its reconstructed export filter and how it
// was observed.
type CoveredSetter struct {
	ASN    bgp.ASN
	Filter ixp.ExportFilter
	Source DataSource
}

// compareCovered orders covered setters by ASN.
func compareCovered(a, b CoveredSetter) int { return cmp.Compare(a.ASN, b.ASN) }

// PassiveCount and ActiveCount split coverage by source; members seen
// by both count as passive (they would not have been queried actively
// under equation 2).
func (x *IXPInference) PassiveCount() int {
	n := 0
	for _, s := range x.Covered {
		if s.Source&ObsPassive != 0 {
			n++
		}
	}
	return n
}

// ActiveCount counts members covered only by active queries.
func (x *IXPInference) ActiveCount() int {
	n := 0
	for _, s := range x.Covered {
		if s.Source&ObsPassive == 0 && s.Source&ObsActive != 0 {
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
	Links map[bgp.LinkKey][]string

	// linkIndex is the index MeshState.Snapshot builds with the Result;
	// nil on an InferLinks Result.
	//
	//mlplint:memo Snapshot
	linkIndex *LinkIndex
}

// BuildIndex returns the link index MeshState.Snapshot built with r or,
// for an InferLinks Result, a fresh one per call. It writes nothing, so
// goroutines may call it on a shared Result.
//
//mlplint:frozen
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
func (r *Result) IXPLinks(ixpName string) []bgp.LinkKey {
	var out []bgp.LinkKey
	for k, ixps := range r.Links {
		if slices.Contains(ixps, ixpName) {
			out = append(out, k)
		}
	}
	slices.SortFunc(out, bgp.CompareLinkKeys)
	return out
}

// ObservationSource is the read side of an observation store: what
// InferLinks needs to reconstruct filters and infer the mesh. It is
// implemented by the snapshot Observations and by the delta-maintained
// DeltaObservations of the incremental windowed pipeline.
type ObservationSource interface {
	// CoveredSetters returns the covered setters observed at e's IXP,
	// strictly ascending by ASN, each with the export filter its
	// per-prefix community sets vote for under e's scheme. The caller
	// owns the slice.
	CoveredSetters(e *IXPEntry) []CoveredSetter
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
		Links:  make(map[bgp.LinkKey][]string),
	}
	for _, entry := range dict.Entries {
		// A setter outside known connectivity is a stray observation.
		covered := slices.DeleteFunc(obs.CoveredSetters(entry), func(s CoveredSetter) bool { return !entry.IsMember(s.ASN) })
		res.PerIXP[entry.Name] = &IXPInference{Name: entry.Name, Members: entry.Members(), Covered: covered}
		for i, a := range covered {
			for _, b := range covered[i+1:] {
				if reciprocal(a.ASN, a.Filter, b.ASN, b.Filter) {
					k := bgp.MakeLinkKey(a.ASN, b.ASN)
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
