package bgp

// AttrArena slab-allocates the objects produced by attribute decoding:
// PathAttrs records, AS-path segments and their ASN arrays, and
// community sets. Bulk consumers (an MRT RIB dump holds one decoded
// attribute set per run of a peer's equal attribute blocks, tens of
// thousands per archive) decode into one arena and retain everything
// with a handful of chunk allocations instead of ~4 per set.
//
// Chunks are never grown in place, so pointers and slices handed out
// earlier stay valid for the arena's lifetime. An arena is not safe for
// concurrent use, and individual objects cannot be freed: drop the whole
// arena (and everything decoded into it) at once.
type AttrArena struct {
	attrs []PathAttrs
	segs  []PathSegment
	asns  []ASN
	comms []Community
}

const (
	arenaAttrChunk = 1024
	arenaSegChunk  = 1024
	arenaASNChunk  = 8192
	arenaCommChunk = 8192
)

// newAttrs carves one zeroed PathAttrs record.
func (a *AttrArena) newAttrs() *PathAttrs {
	if len(a.attrs) == cap(a.attrs) {
		a.attrs = make([]PathAttrs, 0, arenaAttrChunk)
	}
	a.attrs = a.attrs[:len(a.attrs)+1]
	return &a.attrs[len(a.attrs)-1]
}

// segSlice carves a full-length slice of n segments.
func (a *AttrArena) segSlice(n int) []PathSegment {
	if len(a.segs)+n > cap(a.segs) {
		c := arenaSegChunk
		if n > c {
			c = n
		}
		a.segs = make([]PathSegment, 0, c)
	}
	s := a.segs[len(a.segs) : len(a.segs)+n : len(a.segs)+n]
	a.segs = a.segs[:len(a.segs)+n]
	return s
}

// asnSlice carves a full-length slice of n ASNs.
func (a *AttrArena) asnSlice(n int) []ASN {
	if len(a.asns)+n > cap(a.asns) {
		c := arenaASNChunk
		if n > c {
			c = n
		}
		a.asns = make([]ASN, 0, c)
	}
	s := a.asns[len(a.asns) : len(a.asns)+n : len(a.asns)+n]
	a.asns = a.asns[:len(a.asns)+n]
	return s
}

// commSlice carves a zero-length, capacity-n community slice.
func (a *AttrArena) commSlice(n int) Communities {
	if len(a.comms)+n > cap(a.comms) {
		c := arenaCommChunk
		if n > c {
			c = n
		}
		a.comms = make([]Community, 0, c)
	}
	s := a.comms[len(a.comms) : len(a.comms) : len(a.comms)+n]
	a.comms = a.comms[:len(a.comms)+n]
	return Communities(s)
}
