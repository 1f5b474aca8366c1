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

// LinkEncoder appends the wire encoding of one link to dst. It belongs
// to the consumer that publishes the index (the serving tier's JSON
// link object); it must be a pure function of its arguments, and one
// chain of Results must always be indexed with the same encoder, since
// a patched index reuses its predecessor's bytes for unchanged links.
type LinkEncoder func(dst []byte, key topology.LinkKey, ixps []string) []byte

// LinkIndex is the read-side view of a Result's mesh: one ascending
// link array, sorted once, and two flat CSR adjacencies into it — the
// links of each AS and the links of each IXP — so "who peers with AS X"
// and "which links does IXP Y carry" cost O(answer) instead of a scan
// and a sort of the whole mesh. Rows hold indices into Links in
// ascending order, i.e. already in canonical (A, B) order. It is built
// by Result.BuildIndex — from scratch (newLinkIndex) or, when the
// Result came out of a MeshState that already published an indexed
// predecessor, by patching that predecessor's index with the links that
// moved (patchLinkIndex) — and read-only afterwards.
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
	// Encoded is the wire encoding of Links under the LinkEncoder
	// BuildIndex was given — '[', the encoded links joined by ',', ']' —
	// nil when it was given none. Riding on the index, it is shared by
	// every epoch that shares the Result.
	Encoded []byte

	// encOff[i] is where link i's encoding starts in Encoded; every
	// encoding is followed by one separator byte, so a run of links
	// [i, j) occupies Encoded[encOff[i]:encOff[j]]. len(Links)+1 entries
	// when Encoded is set.
	encOff []uint32
	// fnv[c] is the fingerprint's FNV-1a state before link c*fnvStride
	// (after the last link, when that is where c*fnvStride falls): what
	// a patched successor resumes hashing from.
	fnv []uint64

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

// compareLinkKeys orders link keys ascending by (A, B): the canonical
// order of every walk of a mesh.
func compareLinkKeys(a, b topology.LinkKey) int {
	if c := cmp.Compare(a.A, b.A); c != 0 {
		return c
	}
	return cmp.Compare(a.B, b.B)
}

// sortedLinks extracts a link map's entries in ascending (A, B) order:
// the one sort every canonical walk of a mesh derives from.
func sortedLinks(links map[topology.LinkKey][]string) []IndexedLink {
	out := make([]IndexedLink, 0, len(links))
	for k, ixps := range links {
		out = append(out, IndexedLink{Key: k, IXPs: ixps})
	}
	slices.SortFunc(out, func(a, b IndexedLink) int { return compareLinkKeys(a.Key, b.Key) })
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

// FNV-1a 64 (hash/fnv's New64a, which fingerprintLinks goes through):
// spelled out here so the index can checkpoint the running state and a
// patched successor can resume from it.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// fnvStride is the link distance between two checkpointed states.
	fnvStride = 64
)

// hashLink folds one link's canonical encoding (appendMeshLinks) into
// an FNV-1a state.
//
//mlplint:allocfree
func hashLink(h uint64, l *IndexedLink) uint64 {
	for _, w := range [2]bgp.ASN{l.Key.A, l.Key.B} {
		for shift := 24; shift >= 0; shift -= 8 {
			h = (h ^ uint64(byte(w>>shift))) * fnvPrime64
		}
	}
	for _, name := range l.IXPs {
		for i := 0; i < len(name); i++ {
			h = (h ^ uint64(name[i])) * fnvPrime64
		}
		h *= fnvPrime64 // the 0 terminator: h ^ 0
	}
	return (h ^ 0xFF) * fnvPrime64
}

// rehash computes the fingerprint from link from (a multiple of
// fnvStride, whose preceding state is h) to the end, appending the
// checkpoints it passes to x.fnv, which must hold exactly the ones
// before from.
//
//mlplint:allocfree
//mlplint:frozen
func (x *LinkIndex) rehash(from int, h uint64) {
	for i := from; ; i++ {
		if i%fnvStride == 0 {
			x.fnv = append(x.fnv, h)
		}
		if i == len(x.Links) {
			break
		}
		h = hashLink(h, &x.Links[i])
	}
	x.Fingerprint = h
}

// encodeLink appends one link's encoding and its separator to Encoded.
//
//mlplint:allocfree
//mlplint:frozen
func (x *LinkIndex) encodeLink(enc LinkEncoder, l *IndexedLink) {
	x.encOff = append(x.encOff, uint32(len(x.Encoded)))
	x.Encoded = append(enc(x.Encoded, l.Key, l.IXPs), ',')
}

// closeEncoded ends the link array: the last separator becomes the
// closing bracket (an empty array gets one of its own).
//
//mlplint:allocfree
//mlplint:frozen
func (x *LinkIndex) closeEncoded() {
	x.encOff = append(x.encOff, uint32(len(x.Encoded)))
	if len(x.Links) == 0 {
		x.Encoded = append(x.Encoded, ']')
		return
	}
	x.Encoded[len(x.Encoded)-1] = ']'
}

// encode fills Encoded and encOff by encoding every link.
//
//mlplint:frozen
func (x *LinkIndex) encode(enc LinkEncoder) {
	x.encOff = make([]uint32, 0, len(x.Links)+1)
	x.Encoded = append(make([]byte, 0, 48*len(x.Links)+2), '[')
	for i := range x.Links {
		x.encodeLink(enc, &x.Links[i])
	}
	x.closeEncoded()
}

// newLinkIndex derives the index of r from nothing but r: one sort,
// then single passes. It is the base case — a batch Result, a mesh's
// first window, a predecessor nobody indexed — and the oracle the
// patched index is tested against.
//
//mlplint:frozen
func newLinkIndex(r *Result, enc LinkEncoder) *LinkIndex {
	x := &LinkIndex{Links: sortedLinks(r.Links)}
	x.fnv = make([]uint64, 0, len(x.Links)/fnvStride+1)
	x.rehash(0, fnvOffset64)
	if enc != nil {
		x.encode(enc)
	}

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

// indexPatch is what a Result out of MeshState.Snapshot carries instead
// of an index when its link set differs from an indexed predecessor's:
// that predecessor's index and the ascending keys of every link whose
// attribution moved in between (a key may also name a link that moved
// and moved back). BuildIndex consumes it.
type indexPatch struct {
	base *LinkIndex
	keys []topology.LinkKey
}

// gone is the renumbering of a link the patch removed.
const gone = ^uint32(0)

// rowEdit is one adjacency entry a patch merges into, or drops from,
// the row of an AS or IXP; link indexes the patched Links.
type rowEdit[K ~uint32] struct {
	row  K
	link uint32
}

func compareRowEdits[K ~uint32](a, b rowEdit[K]) int {
	if c := cmp.Compare(a.row, b.row); c != 0 {
		return c
	}
	return cmp.Compare(a.link, b.link)
}

// patchLinkIndex derives the index of the mesh links from the index of
// a mesh that differs from it only at keys (ascending), in time linear
// in the mesh with memmove-sized constants plus O(len(keys)) real work:
// the unchanged runs between two keys are block-copied — links, encoded
// bytes — and renumbered by a monotone old→new map, the CSR rows are
// shifted through that map with only the touched rows merged, the
// fingerprint is re-hashed from the checkpoint before the first change,
// and only the links at keys are encoded. The outcome equals
// newLinkIndex over links field for field.
//
//mlplint:allocfree
//mlplint:frozen
func patchLinkIndex(base *LinkIndex, keys []topology.LinkKey, links map[topology.LinkKey][]string, enc LinkEncoder) *LinkIndex {
	old := base.Links
	splice := enc != nil && base.Encoded != nil
	//mlplint:allocfree the patched index itself
	x := &LinkIndex{IXPs: base.IXPs, MultiIXP: base.MultiIXP}
	//mlplint:allocfree the patched index's own link array
	x.Links = make([]IndexedLink, 0, len(old)+len(keys))
	if splice {
		//mlplint:allocfree the patched index's own encoding
		x.encOff = make([]uint32, 0, len(old)+len(keys)+1)
		//mlplint:allocfree the patched index's own encoding
		x.Encoded = append(make([]byte, 0, len(base.Encoded)+64*len(keys)), '[')
	}
	//mlplint:allocfree per-patch scratch: the old→new link renumbering
	remap := make([]uint32, len(old))
	var asAdd []rowEdit[bgp.ASN]
	var ixpAdd, ixpDrop []rowEdit[uint32]

	// Merge pass: the run of old links below each key is carried over as
	// a block, then the key itself is settled from both sides.
	first, oi := -1, 0
	for ki := 0; ki <= len(keys); ki++ {
		to := len(old)
		if ki < len(keys) {
			n, _ := slices.BinarySearchFunc(old[oi:], keys[ki], func(l IndexedLink, k topology.LinkKey) int { return compareLinkKeys(l.Key, k) })
			to = oi + n
		}
		if to > oi {
			n := len(x.Links)
			x.Links = append(x.Links, old[oi:to]...)
			for i := oi; i < to; i++ {
				remap[i] = uint32(n + i - oi)
			}
			if splice {
				shift := uint32(len(x.Encoded)) - base.encOff[oi]
				for _, off := range base.encOff[oi:to] {
					x.encOff = append(x.encOff, off+shift)
				}
				x.Encoded = append(x.Encoded, base.Encoded[base.encOff[oi]:base.encOff[to]]...)
				x.Encoded[len(x.Encoded)-1] = ','
			}
			oi = to
		}
		if ki == len(keys) {
			break
		}
		k := keys[ki]
		inOld := oi < len(old) && old[oi].Key == k
		ixps, inNew := links[k]
		if !inOld && !inNew {
			continue // moved and moved back, absent either side
		}
		if first < 0 {
			first = len(x.Links)
		}
		var was []string
		if inOld {
			was = old[oi].IXPs
		}
		n := uint32(len(x.Links))
		if inNew {
			x.Links = append(x.Links, IndexedLink{Key: k, IXPs: ixps})
			if splice {
				x.encodeLink(enc, &x.Links[n])
			}
			if !inOld {
				asAdd = append(asAdd, rowEdit[bgp.ASN]{k.A, n}, rowEdit[bgp.ASN]{k.B, n})
			}
			// The IXP rows change by the symmetric difference of the two
			// sorted attribution lists.
			for i, j := 0, 0; i < len(was) || j < len(ixps); {
				switch {
				case j == len(ixps) || i < len(was) && was[i] < ixps[j]:
					row, _ := slices.BinarySearch(x.IXPs, was[i])
					ixpDrop = append(ixpDrop, rowEdit[uint32]{uint32(row), n})
					i++
				case i == len(was) || ixps[j] < was[i]:
					row, _ := slices.BinarySearch(x.IXPs, ixps[j])
					ixpAdd = append(ixpAdd, rowEdit[uint32]{uint32(row), n})
					j++
				default:
					i, j = i+1, j+1
				}
			}
		}
		if inOld {
			remap[oi] = gone
			if inNew {
				remap[oi] = n
			}
			oi++
		}
		if len(ixps) > 1 {
			x.MultiIXP++
		}
		if len(was) > 1 {
			x.MultiIXP--
		}
	}
	if splice {
		x.closeEncoded()
	} else if enc != nil {
		x.encode(enc)
	}

	// Fingerprint: every link before the first change hashes as it did.
	if first < 0 {
		first = len(x.Links)
	}
	c := first / fnvStride
	//mlplint:allocfree the patched index's own checkpoints
	x.fnv = append(make([]uint64, 0, len(x.Links)/fnvStride+1), base.fnv[:c]...)
	x.rehash(c*fnvStride, base.fnv[c])

	// Adjacencies. An inserted link joins its endpoints' rows and its
	// IXPs' rows, a removed one leaves them through remap, a re-attributed
	// one moves between IXP rows only.
	slices.SortFunc(asAdd, compareRowEdits[bgp.ASN])
	slices.SortFunc(ixpAdd, compareRowEdits[uint32])
	slices.SortFunc(ixpDrop, compareRowEdits[uint32])
	x.asns, x.asOff, x.asAdj = patchRows(base.asns, base.asOff, base.asAdj, remap, asAdd, nil, false, 2*len(x.Links))
	//mlplint:allocfree per-patch scratch: the IXP row numbers, as patchRows keys
	ixpRows := make([]uint32, len(x.IXPs))
	for i := range ixpRows {
		ixpRows[i] = uint32(i)
	}
	_, x.ixpOff, x.ixpAdj = patchRows(ixpRows, base.ixpOff, base.ixpAdj, remap, ixpAdd, ixpDrop, true, len(base.ixpAdj)+len(ixpAdd))
	return x
}

// patchRows rebuilds one CSR adjacency (row keys, offsets, entries) for
// a renumbered link array: every entry of the old rows is renumbered
// through remap — monotone, so rows stay ascending — or left out when
// its link is gone or listed in drop, and the entries listed in add are
// merged in, creating rows as needed. add and drop are sorted by (row,
// link); every drop names an entry that exists. A row left without
// entries disappears unless keepEmpty. size bounds the new entry count.
//
//mlplint:allocfree
func patchRows[K ~uint32](keys []K, off, adj, remap []uint32, add, drop []rowEdit[K], keepEmpty bool, size int) ([]K, []uint32, []uint32) {
	//mlplint:allocfree the patched index's own adjacency
	newKeys := make([]K, 0, len(keys)+len(add))
	//mlplint:allocfree the patched index's own adjacency
	newOff := make([]uint32, 1, len(keys)+len(add)+1)
	//mlplint:allocfree the patched index's own adjacency
	newAdj := make([]uint32, 0, size)
	for ki := 0; ki < len(keys) || len(add) > 0; {
		var key K
		var row []uint32
		if len(add) == 0 || ki < len(keys) && keys[ki] <= add[0].row {
			key, row = keys[ki], adj[off[ki]:off[ki+1]]
			ki++
		} else {
			key = add[0].row // a row the old index did not have
		}
		start := len(newAdj)
		if (len(add) == 0 || add[0].row != key) && (len(drop) == 0 || drop[0].row != key) {
			// Untouched row (the common case): renumber only.
			for _, v := range row {
				if nv := remap[v]; nv != gone {
					newAdj = append(newAdj, nv)
				}
			}
		} else {
			for _, v := range row {
				nv := remap[v]
				if nv == gone {
					continue
				}
				for len(add) > 0 && add[0].row == key && add[0].link < nv {
					newAdj = append(newAdj, add[0].link)
					add = add[1:]
				}
				if len(drop) > 0 && drop[0].row == key && drop[0].link == nv {
					drop = drop[1:]
					continue
				}
				newAdj = append(newAdj, nv)
			}
			for len(add) > 0 && add[0].row == key {
				newAdj = append(newAdj, add[0].link)
				add = add[1:]
			}
		}
		if len(newAdj) > start || keepEmpty {
			newKeys = append(newKeys, key)
			newOff = append(newOff, uint32(len(newAdj)))
		}
	}
	return newKeys, newOff, newAdj
}
