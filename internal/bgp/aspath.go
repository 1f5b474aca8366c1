package bgp

import (
	"fmt"
	"strings"
)

// AS path segment types (RFC 4271 §4.3).
const (
	segSet      = 1 // AS_SET: unordered
	segSequence = 2 // AS_SEQUENCE: ordered
)

// PathSegment is one segment of an AS_PATH attribute.
type PathSegment struct {
	Set  bool // true for AS_SET, false for AS_SEQUENCE
	ASNs []ASN
}

// ASPath is the AS_PATH attribute: an ordered list of segments. The
// common case is a single AS_SEQUENCE.
type ASPath []PathSegment

// NewASPath builds a single-sequence path from the given ASNs
// (leftmost = most recent hop, as in BGP).
func NewASPath(asns ...ASN) ASPath {
	if len(asns) == 0 {
		return nil
	}
	return ASPath{{ASNs: asns}}
}

// Prepend returns a copy of the path with asn prepended, as performed by
// each AS when exporting a route. Repeated prepending for path poisoning
// simply calls this multiple times.
func (p ASPath) Prepend(asn ASN) ASPath {
	if len(p) > 0 && !p[0].Set {
		head := make([]ASN, 0, len(p[0].ASNs)+1)
		head = append(head, asn)
		head = append(head, p[0].ASNs...)
		out := make(ASPath, len(p))
		copy(out, p)
		out[0] = PathSegment{ASNs: head}
		return out
	}
	out := make(ASPath, 0, len(p)+1)
	out = append(out, PathSegment{ASNs: []ASN{asn}})
	out = append(out, p...)
	return out
}

// Flatten returns all ASNs in order of appearance, expanding AS_SETs in
// their stored order. This is the "series of adjacent AS links" view used
// by topology extraction.
func (p ASPath) Flatten() []ASN {
	var out []ASN
	for _, seg := range p {
		out = append(out, seg.ASNs...)
	}
	return out
}

// Origin returns the origin AS (rightmost) and true, or 0 and false for
// an empty path or one ending in an AS_SET (whose origin is ambiguous).
func (p ASPath) Origin() (ASN, bool) {
	if len(p) == 0 {
		return 0, false
	}
	last := p[len(p)-1]
	if last.Set || len(last.ASNs) == 0 {
		return 0, false
	}
	return last.ASNs[len(last.ASNs)-1], true
}

// First returns the leftmost AS (the collector's direct peer) and true.
func (p ASPath) First() (ASN, bool) {
	if len(p) == 0 || p[0].Set || len(p[0].ASNs) == 0 {
		return 0, false
	}
	return p[0].ASNs[0], true
}

// Len returns the AS_PATH length as used by the BGP decision process:
// each AS in a sequence counts 1, each AS_SET counts 1 in total.
func (p ASPath) Len() int {
	n := 0
	for _, seg := range p {
		if seg.Set {
			n++
		} else {
			n += len(seg.ASNs)
		}
	}
	return n
}

// Contains reports whether asn appears anywhere in the path. Used both
// for loop prevention and by the inference pipeline's filters.
func (p ASPath) Contains(asn ASN) bool {
	for _, seg := range p {
		for _, a := range seg.ASNs {
			if a == asn {
				return true
			}
		}
	}
	return false
}

// HasCycle reports whether the flattened path visits any AS twice in
// non-adjacent positions. Adjacent repeats are legitimate prepending;
// non-adjacent repeats indicate poisoning or misconfiguration and are
// filtered by the paper's pipeline (§5).
func (p ASPath) HasCycle() bool {
	flat := p.Flatten()
	seen := make(map[ASN]int, len(flat))
	for i, a := range flat {
		if j, ok := seen[a]; ok && flat[i-1] != a {
			_ = j
			return true
		}
		seen[a] = i
	}
	return false
}

// Dedup returns the flattened path with adjacent duplicates (prepending)
// collapsed. Link extraction works on this form.
func (p ASPath) Dedup() []ASN {
	flat := p.Flatten()
	out := flat[:0:0]
	for _, a := range flat {
		if len(out) == 0 || out[len(out)-1] != a {
			out = append(out, a)
		}
	}
	return out
}

// Clone returns a deep copy.
func (p ASPath) Clone() ASPath {
	if p == nil {
		return nil
	}
	out := make(ASPath, len(p))
	for i, seg := range p {
		out[i] = PathSegment{Set: seg.Set, ASNs: append([]ASN(nil), seg.ASNs...)}
	}
	return out
}

// Equal reports exact structural equality.
func (p ASPath) Equal(o ASPath) bool {
	if len(p) != len(o) {
		return false
	}
	for i := range p {
		if p[i].Set != o[i].Set || len(p[i].ASNs) != len(o[i].ASNs) {
			return false
		}
		for j := range p[i].ASNs {
			if p[i].ASNs[j] != o[i].ASNs[j] {
				return false
			}
		}
	}
	return true
}

// String renders the path the way router CLIs do: sequences as
// space-separated ASNs, sets in braces.
func (p ASPath) String() string {
	var b strings.Builder
	for i, seg := range p {
		if i > 0 {
			b.WriteByte(' ')
		}
		if seg.Set {
			b.WriteByte('{')
			for j, a := range seg.ASNs {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(a.String())
			}
			b.WriteByte('}')
		} else {
			for j, a := range seg.ASNs {
				if j > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(a.String())
			}
		}
	}
	return b.String()
}

// ParseASPath parses the String form back into a path.
func ParseASPath(s string) (ASPath, error) {
	var path ASPath
	var seq []ASN
	flushSeq := func() {
		if len(seq) > 0 {
			path = append(path, PathSegment{ASNs: seq})
			seq = nil
		}
	}
	fields := strings.Fields(s)
	for _, f := range fields {
		if strings.HasPrefix(f, "{") {
			flushSeq()
			inner := strings.TrimSuffix(strings.TrimPrefix(f, "{"), "}")
			var set []ASN
			for _, part := range strings.Split(inner, ",") {
				if part == "" {
					continue
				}
				a, err := ParseASN(part)
				if err != nil {
					return nil, err
				}
				set = append(set, a)
			}
			path = append(path, PathSegment{Set: true, ASNs: set})
			continue
		}
		a, err := ParseASN(f)
		if err != nil {
			return nil, err
		}
		seq = append(seq, a)
	}
	flushSeq()
	return path, nil
}

// maxSegLen is the most ASNs one AS_PATH segment carries: its count
// is a single octet.
const maxSegLen = 255

// wireLen returns the serialized length of the path without encoding
// it, so callers can emit the attribute header before the body. An
// AS_SEQUENCE longer than maxSegLen goes out as consecutive segments
// (RFC 4271 §9.2.2.1); an AS_SET that long cannot be split without
// changing its meaning, so it is an error.
func (p ASPath) wireLen(as4 bool) (int, error) {
	size := 2
	if as4 {
		size = 4
	}
	n := 0
	for _, seg := range p {
		segs := 1
		if len(seg.ASNs) > maxSegLen {
			if seg.Set {
				return 0, fmt.Errorf("bgp: AS_SET of %d ASNs exceeds the %d one segment carries", len(seg.ASNs), maxSegLen)
			}
			segs = (len(seg.ASNs) + maxSegLen - 1) / maxSegLen
		}
		n += 2*segs + size*len(seg.ASNs)
	}
	return n, nil
}

// appendWire serializes the path, whose wireLen must have succeeded. If
// as4 is true ASNs are encoded as 4 octets (RFC 6793), otherwise as 2
// octets with 32-bit ASNs replaced by AS_TRANS.
func (p ASPath) appendWire(dst []byte, as4 bool) []byte {
	for _, seg := range p {
		t := byte(segSequence)
		if seg.Set {
			t = segSet
		}
		asns := seg.ASNs
		for {
			run := asns[:min(len(asns), maxSegLen)]
			asns = asns[len(run):]
			dst = append(dst, t, byte(len(run)))
			for _, a := range run {
				if as4 {
					dst = append(dst, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
				} else {
					if a.Is32Bit() {
						a = ASTrans
					}
					dst = append(dst, byte(a>>8), byte(a))
				}
			}
			if len(asns) == 0 {
				break
			}
		}
	}
	return dst
}

// decodeASPath parses an AS_PATH attribute body.
func decodeASPath(b []byte, as4 bool) (ASPath, error) {
	return decodeASPathArena(b, as4, nil)
}

// decodeASPathArena parses an AS_PATH attribute body, carving segments
// and ASN arrays from arena when it is non-nil.
func decodeASPathArena(b []byte, as4 bool, arena *AttrArena) (ASPath, error) {
	size := 2
	if as4 {
		size = 4
	}
	// Pre-scan the segment headers so arena paths carve exactly one
	// segment slice (the common case is a single AS_SEQUENCE).
	nseg := 0
	for rest := b; len(rest) > 0; {
		if len(rest) < 2 {
			return nil, fmt.Errorf("bgp: truncated AS_PATH segment header")
		}
		t, n := rest[0], int(rest[1])
		if t != segSet && t != segSequence {
			return nil, fmt.Errorf("bgp: unknown AS_PATH segment type %d", t)
		}
		if len(rest) < 2+n*size {
			return nil, fmt.Errorf("bgp: truncated AS_PATH segment: need %d bytes, have %d", n*size, len(rest)-2)
		}
		rest = rest[2+n*size:]
		nseg++
	}
	if nseg == 0 {
		return nil, nil
	}
	var path ASPath
	if arena != nil {
		path = ASPath(arena.segSlice(nseg))
	} else {
		path = make(ASPath, nseg)
	}
	for si := 0; si < nseg; si++ {
		t, n := b[0], int(b[1])
		b = b[2:]
		var asns []ASN
		if arena != nil {
			asns = arena.asnSlice(n)
		} else {
			asns = make([]ASN, n)
		}
		for i := 0; i < n; i++ {
			if as4 {
				asns[i] = ASN(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
				b = b[4:]
			} else {
				asns[i] = ASN(uint16(b[0])<<8 | uint16(b[1]))
				b = b[2:]
			}
		}
		path[si] = PathSegment{Set: t == segSet, ASNs: asns}
	}
	return path, nil
}
