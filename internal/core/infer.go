package core

import (
	"sort"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
	"mlpeering/internal/topology"
)

// IXPInference is the per-IXP outcome of steps 4-5. Inferences are
// built by InferLinks and MeshState.Snapshot and are read-only views
// afterwards.
//
//mlplint:frozen
type IXPInference struct {
	Name string
	// Members is the best-known RS member list used for inference.
	Members []bgp.ASN
	// Filters holds the reconstructed export filter of every covered
	// member.
	Filters map[bgp.ASN]ixp.ExportFilter
	// Sources records how each covered member was observed.
	Sources map[bgp.ASN]DataSource
	// Links are the inferred multilateral peering links at this IXP.
	Links map[topology.LinkKey]bool

	covered []bgp.ASN // CoveredMembers cache, built on first call
}

// CoveredMembers returns the members with reconstructed filters,
// ascending. The sorted slice is computed once and cached (Filters is
// complete by the time anyone asks); callers must not modify it.
func (x *IXPInference) CoveredMembers() []bgp.ASN {
	if x.covered == nil {
		out := make([]bgp.ASN, 0, len(x.Filters))
		for m := range x.Filters {
			out = append(out, m)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		//mlplint:frozen idempotent memo: InferLinks prefills it in the builder; Snapshot skips the prefill to keep streaming window closes O(churn), so first read fills it with identical content
		x.covered = out
	}
	return x.covered
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

	linkIndex *LinkIndex // BuildIndex memo; nil until a consumer asks for it
	// patch, when set, is how BuildIndex derives the memo: from an
	// indexed predecessor and the links that moved since. Cleared once
	// consumed, so a Result never keeps its predecessor's index alive.
	patch *indexPatch
}

// BuildIndex returns r's link index, deriving it on first call — by
// patching the previous window's index when r came out of a MeshState
// whose previous Result was indexed, from scratch otherwise. enc, when
// non-nil, also fills the index's Encoded link array (see LinkEncoder);
// an index built without one gets it on the first call that passes one.
// The first call writes the memo, so it belongs before r is shared
// between goroutines: the serving tier makes it inside NewSnapshot's
// construction window, and MeshState.Snapshot hands the memo on to the
// next Result when no link changed. The batch pipeline never calls it.
func (r *Result) BuildIndex(enc LinkEncoder) *LinkIndex {
	switch {
	case r.linkIndex != nil:
		if enc != nil && r.linkIndex.Encoded == nil {
			//mlplint:frozen idempotent memo: a pure function of the already-complete Links, filled before publication by serve.NewSnapshot (prefill rule)
			r.linkIndex.encode(enc)
		}
	case r.patch != nil:
		//mlplint:frozen idempotent memo: derived from the predecessor's read-only index and the already-complete Links, filled before publication by serve.NewSnapshot (prefill rule), content identical to newLinkIndex's
		r.linkIndex = patchLinkIndex(r.patch.base, r.patch.keys, r.Links, enc)
		//mlplint:frozen the consumed patch is dropped with the memo it produced, so epochs never chain through their indexes
		r.patch = nil
	default:
		//mlplint:frozen idempotent memo: derived from the already-complete Links/PerIXP alone, filled before publication by serve.NewSnapshot (prefill rule), identical content whoever fills it
		r.linkIndex = newLinkIndex(r, enc)
	}
	return r.linkIndex
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

// LinkCount returns the per-IXP link count (the "Links" column of
// Table 2).
func (r *Result) LinkCount(ixpName string) int {
	x, ok := r.PerIXP[ixpName]
	if !ok {
		return 0
	}
	return len(x.Links)
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
			Links:   make(map[topology.LinkKey]bool),
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
			x.Filters[setter] = f
			x.Sources[setter] = obs.Source(entry.Name, setter)
		}

		covered := x.CoveredMembers()
		for i, a := range covered {
			fa := x.Filters[a]
			for _, b := range covered[i+1:] {
				fb := x.Filters[b]
				if fa.Allows(b) && fb.Allows(a) {
					x.Links[topology.MakeLinkKey(a, b)] = true
				}
			}
		}
		for k := range x.Links {
			res.Links[k] = append(res.Links[k], entry.Name)
		}
	}
	for k := range res.Links {
		sort.Strings(res.Links[k])
	}
	return res
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
// never of wall-clock state. An indexed Result (BuildIndex) answers
// from the index's sorted array instead of sorting again.
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
	for _, x := range r.PerIXP {
		n += len(x.Links)
	}
	return n
}
