package core

import (
	"cmp"
	"hash/fnv"
	"slices"
	"sort"

	"mlpeering/internal/bgp"
	"mlpeering/internal/topology"
)

// IndexedLink is one inferred link with its sorted IXP attribution.
// IXPs aliases the owning Result's attribution slice.
type IndexedLink struct {
	Key  topology.LinkKey
	IXPs []string
}

// LinkIndex is the read-side view of a Result's mesh: one ascending
// link array, sorted once, and two flat CSR adjacencies into it — the
// links of each AS and the links of each IXP — so "who peers with AS X"
// and "which links does IXP Y carry" cost O(answer) instead of a scan
// and a sort of the whole mesh. Rows hold indices into Links in
// ascending order, i.e. already in canonical (A, B) order. It is built
// by Result.BuildIndex and read-only afterwards.
//
//mlplint:frozen
type LinkIndex struct {
	// Links is every inferred link in ascending (A, B) order.
	Links []IndexedLink
	// Fingerprint is the mesh hash (Result.Fingerprint), computed off
	// the same sorted array.
	Fingerprint uint64
	// MultiIXP counts the links attributed to more than one IXP
	// (Result.MultiIXPLinks).
	MultiIXP int
	// IXPs is the Result's per-IXP names, ascending.
	IXPs []string
	// Encoded is reserved for the serving tier: its wire encoding of
	// Links, set once by serve.NewSnapshot before the index is
	// published. Riding on the index, it is shared by every epoch that
	// shares the Result.
	Encoded []byte

	asns   []bgp.ASN // distinct link endpoints, ascending
	asOff  []uint32  // len(asns)+1 row offsets into asAdj
	asAdj  []uint32
	ixpOff []uint32 // len(IXPs)+1 row offsets into ixpAdj
	ixpAdj []uint32
}

// ASLinks returns the indices into Links of every link asn is an
// endpoint of, ascending; nil when it has none.
//
//mlplint:allocfree
func (x *LinkIndex) ASLinks(asn bgp.ASN) []uint32 {
	row, ok := slices.BinarySearch(x.asns, asn)
	if !ok {
		return nil
	}
	return x.asAdj[x.asOff[row]:x.asOff[row+1]]
}

// IXPLinks returns the indices into Links of every link attributed to
// the named IXP, ascending; ok is false when the Result has no such
// IXP.
//
//mlplint:allocfree
func (x *LinkIndex) IXPLinks(name string) (links []uint32, ok bool) {
	row, ok := slices.BinarySearch(x.IXPs, name)
	if !ok {
		return nil, false
	}
	return x.ixpAdj[x.ixpOff[row]:x.ixpOff[row+1]], true
}

// sortedLinks extracts a link map's entries in ascending (A, B) order:
// the one sort every canonical walk of a mesh derives from.
func sortedLinks(links map[topology.LinkKey][]string) []IndexedLink {
	out := make([]IndexedLink, 0, len(links))
	for k, ixps := range links {
		out = append(out, IndexedLink{Key: k, IXPs: ixps})
	}
	slices.SortFunc(out, func(a, b IndexedLink) int {
		if c := cmp.Compare(a.Key.A, b.Key.A); c != 0 {
			return c
		}
		return cmp.Compare(a.Key.B, b.Key.B)
	})
	return out
}

// appendMeshLinks is AppendMesh over an already-sorted link array.
func appendMeshLinks(dst []byte, links []IndexedLink) []byte {
	for _, l := range links {
		k := l.Key
		dst = append(dst,
			byte(k.A>>24), byte(k.A>>16), byte(k.A>>8), byte(k.A),
			byte(k.B>>24), byte(k.B>>16), byte(k.B>>8), byte(k.B))
		for _, name := range l.IXPs {
			dst = append(dst, name...)
			dst = append(dst, 0)
		}
		dst = append(dst, 0xFF)
	}
	return dst
}

// fingerprintLinks hashes the canonical mesh encoding of a sorted link
// array (FNV-1a over appendMeshLinks), one link at a time so the whole
// encoding is never materialized.
func fingerprintLinks(links []IndexedLink) uint64 {
	h := fnv.New64a()
	var buf []byte
	for i := range links {
		buf = appendMeshLinks(buf[:0], links[i:i+1])
		h.Write(buf)
	}
	return h.Sum64()
}

// newLinkIndex derives the index of r: one sort, then single passes.
//
//mlplint:frozen
func newLinkIndex(r *Result) *LinkIndex {
	x := &LinkIndex{Links: sortedLinks(r.Links)}
	x.Fingerprint = fingerprintLinks(x.Links)

	x.IXPs = make([]string, 0, len(r.PerIXP))
	for name := range r.PerIXP {
		x.IXPs = append(x.IXPs, name)
	}
	sort.Strings(x.IXPs)

	// Count pass: every link lands in its two endpoints' rows and in
	// the row of each IXP attributing it. Endpoint rows are numbered in
	// first-seen order here and renumbered ascending below; rows keeps
	// each link's row numbers (two endpoints, then its IXPs) for the
	// fill pass, so every lookup happens once.
	seen := make(map[bgp.ASN]uint32)
	var asDeg []uint32
	rowOf := func(asn bgp.ASN) uint32 {
		row, ok := seen[asn]
		if !ok {
			row = uint32(len(asDeg))
			seen[asn] = row
			x.asns = append(x.asns, asn)
			asDeg = append(asDeg, 0)
		}
		asDeg[row]++
		return row
	}
	rows := make([]uint32, 0, 3*len(x.Links))
	x.ixpOff = make([]uint32, len(x.IXPs)+1)
	for _, l := range x.Links {
		rows = append(rows, rowOf(l.Key.A), rowOf(l.Key.B))
		for _, name := range l.IXPs {
			row, _ := slices.BinarySearch(x.IXPs, name) // attributions name PerIXP entries
			rows = append(rows, uint32(row))
			x.ixpOff[row+1]++
		}
		if len(l.IXPs) > 1 {
			x.MultiIXP++
		}
	}

	firstSeen := slices.Clone(x.asns)
	slices.Sort(x.asns)
	rank := make([]uint32, len(firstSeen)) // first-seen row -> ascending row
	x.asOff = make([]uint32, len(x.asns)+1)
	for old, asn := range firstSeen {
		row, _ := slices.BinarySearch(x.asns, asn)
		rank[old] = uint32(row)
		x.asOff[row+1] = asDeg[old]
	}
	for i := 1; i < len(x.asOff); i++ {
		x.asOff[i] += x.asOff[i-1]
	}
	for i := 1; i < len(x.ixpOff); i++ {
		x.ixpOff[i] += x.ixpOff[i-1]
	}

	// Fill pass, in link order, so every row comes out ascending.
	x.asAdj = make([]uint32, 2*len(x.Links))
	x.ixpAdj = make([]uint32, x.ixpOff[len(x.IXPs)])
	asNext := slices.Clone(x.asOff[:len(x.asns)])
	ixpNext := slices.Clone(x.ixpOff[:len(x.IXPs)])
	for i, l := range x.Links {
		for _, old := range rows[:2] {
			x.asAdj[asNext[rank[old]]] = uint32(i)
			asNext[rank[old]]++
		}
		for _, row := range rows[2 : 2+len(l.IXPs)] {
			x.ixpAdj[ixpNext[row]] = uint32(i)
			ixpNext[row]++
		}
		rows = rows[2+len(l.IXPs):]
	}
	return x
}
