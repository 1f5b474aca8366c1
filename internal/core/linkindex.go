package core

import (
	"cmp"
	"encoding/json"
	"maps"
	"slices"
	"strconv"
	"unicode/utf8"

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
// ascending order, i.e. already in canonical (A, B) order. Built with
// its Result by MeshState.Snapshot, or afresh per Result.BuildIndex call
// on an InferLinks Result, it is read-only afterwards.
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
	// Encoded is the JSON array of Links, each link an AppendLink
	// object: '[', the objects joined by ',', ']'. Riding on the index,
	// it is shared by every epoch that shares the Result. The serving
	// tier writes it whole as the /v1/mesh link array and copies runs of
	// it (EncodedRun) into the /v1/as and /v1/ixp bodies.
	Encoded []byte

	// encOff[i] is where link i's encoding starts in Encoded; every
	// encoding is followed by one separator byte, so a run of links
	// [i, j) occupies Encoded[encOff[i]:encOff[j]]. len(Links)+1 entries.
	encOff []uint32

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

// EncodedRun returns the encoding of links [i, j) joined by ',' — no
// brackets, no trailing separator — as a read-only view into Encoded,
// capped so an append to it copies; empty when i == j.
//
//mlplint:allocfree
func (x *LinkIndex) EncodedRun(i, j int) []byte {
	if i == j {
		return nil
	}
	end := x.encOff[j] - 1 // the separator after link j-1, or the closing ']'
	return x.Encoded[x.encOff[i]:end:end]
}

// AppendLink appends one link object, `{"a":A,"b":B,"ixps":[...]}`:
// the encoding of Encoded. It and the helpers below, which the serving
// tier builds its other JSON bodies from, write the bytes encoding/json
// would.
//
//mlplint:allocfree
func AppendLink(dst []byte, key topology.LinkKey, ixps []string) []byte {
	dst = AppendField(dst, `{"a":`, uint64(key.A))
	dst = AppendField(dst, `,"b":`, uint64(key.B))
	dst = append(dst, `,"ixps":`...)
	dst = AppendNames(dst, ixps)
	return append(dst, '}')
}

// AppendField appends key — spelled with its punctuation, e.g.
// `,"b":` — followed by a non-negative integer.
//
//mlplint:allocfree
func AppendField(dst []byte, key string, v uint64) []byte {
	dst = append(dst, key...)
	return strconv.AppendUint(dst, v, 10)
}

// AppendNames appends a JSON array of names.
//
//mlplint:allocfree
func AppendNames(dst []byte, names []string) []byte {
	dst = append(dst, '[')
	for i, name := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, name)
	}
	return append(dst, ']')
}

// AppendString appends s as a JSON string. IXP and scenario names are
// plain ASCII in every world the generator builds, so the common case
// is a byte check and a copy; a name that needs escaping takes the
// encoding/json route, which by construction escapes the way the old
// DTO renders did.
//
//mlplint:allocfree
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendEscaped(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendEscaped is AppendString's slow path.
func appendEscaped(dst []byte, s string) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic("core: string marshal: " + err.Error()) // cannot happen: strings always marshal
	}
	return append(dst, b...)
}

// sortedLinks extracts a link map's entries in ascending (A, B) order:
// the one sort every canonical walk of a mesh derives from.
func sortedLinks(links map[topology.LinkKey][]string) []IndexedLink {
	out := make([]IndexedLink, 0, len(links))
	for k, ixps := range links {
		out = append(out, IndexedLink{Key: k, IXPs: ixps})
	}
	slices.SortFunc(out, func(a, b IndexedLink) int { return topology.CompareLinkKeys(a.Key, b.Key) })
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

// FNV-1a 64 (hash/fnv's New64a), spelled out so a mesh hashes its
// links without the hash.Hash interface or a scratch encoding buffer.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
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

// fingerprintLinks hashes the canonical mesh encoding of a sorted link
// array: FNV-1a over appendMeshLinks, one link at a time.
//
//mlplint:allocfree
func fingerprintLinks(links []IndexedLink) uint64 {
	h := uint64(fnvOffset64)
	for i := range links {
		h = hashLink(h, &links[i])
	}
	return h
}

// encodeLink appends one link's encoding and its separator to Encoded.
//
//mlplint:allocfree
//mlplint:frozen
func (x *LinkIndex) encodeLink(l *IndexedLink) {
	x.encOff = append(x.encOff, uint32(len(x.Encoded)))
	x.Encoded = append(AppendLink(x.Encoded, l.Key, l.IXPs), ',')
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
func (x *LinkIndex) encode() {
	x.encOff = make([]uint32, 0, len(x.Links)+1)
	x.Encoded = append(make([]byte, 0, 48*len(x.Links)+2), '[')
	for i := range x.Links {
		x.encodeLink(&x.Links[i])
	}
	x.closeEncoded()
}

// newLinkIndex derives the index of r from nothing but r: one sort,
// then single passes. It is the base case — a batch Result, a mesh's
// first window — and the oracle the patched index is tested against.
//
//mlplint:frozen
func newLinkIndex(r *Result) *LinkIndex {
	x := &LinkIndex{Links: sortedLinks(r.Links)}
	x.Fingerprint = fingerprintLinks(x.Links)
	x.encode()

	x.IXPs = slices.Sorted(maps.Keys(r.PerIXP))

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
// fingerprint is re-hashed, and only the links at keys are encoded. The
// outcome equals newLinkIndex over links field for field.
//
//mlplint:allocfree
//mlplint:frozen
func patchLinkIndex(base *LinkIndex, keys []topology.LinkKey, links map[topology.LinkKey][]string) *LinkIndex {
	old := base.Links
	//mlplint:allocfree the patched index itself
	x := &LinkIndex{IXPs: base.IXPs, MultiIXP: base.MultiIXP}
	//mlplint:allocfree the patched index's own link array
	x.Links = make([]IndexedLink, 0, len(old)+len(keys))
	//mlplint:allocfree the patched index's own encoding
	x.encOff = make([]uint32, 0, len(old)+len(keys)+1)
	//mlplint:allocfree the patched index's own encoding
	x.Encoded = append(make([]byte, 0, len(base.Encoded)+64*len(keys)), '[')
	//mlplint:allocfree per-patch scratch: the old→new link renumbering
	remap := make([]uint32, len(old))
	var asAdd []rowEdit[bgp.ASN]
	var ixpAdd, ixpDrop []rowEdit[uint32]

	// Merge pass: the run of old links below each key is carried over as
	// a block, then the key itself is settled from both sides.
	oi := 0
	for ki := 0; ki <= len(keys); ki++ {
		to := len(old)
		if ki < len(keys) {
			n, _ := slices.BinarySearchFunc(old[oi:], keys[ki], func(l IndexedLink, k topology.LinkKey) int { return topology.CompareLinkKeys(l.Key, k) })
			to = oi + n
		}
		if to > oi {
			n := len(x.Links)
			x.Links = append(x.Links, old[oi:to]...)
			for i := oi; i < to; i++ {
				remap[i] = uint32(n + i - oi)
			}
			shift := uint32(len(x.Encoded)) - base.encOff[oi]
			for _, off := range base.encOff[oi:to] {
				x.encOff = append(x.encOff, off+shift)
			}
			x.Encoded = append(x.Encoded, base.Encoded[base.encOff[oi]:base.encOff[to]]...)
			x.Encoded[len(x.Encoded)-1] = ','
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
		var was []string
		if inOld {
			was = old[oi].IXPs
		}
		n := uint32(len(x.Links))
		if inNew {
			x.Links = append(x.Links, IndexedLink{Key: k, IXPs: ixps})
			x.encodeLink(&x.Links[n])
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
	x.closeEncoded()
	x.Fingerprint = fingerprintLinks(x.Links)

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
