package serve

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"mlpeering/internal/bgp"
	"mlpeering/internal/core"
	"mlpeering/internal/topology"
)

// The append encoder: every mesh-shaped body (mesh, ixps, ixp, link,
// as) is written by these functions into a caller-supplied buffer, in
// the exact bytes encoding/json produced for the DTOs they replaced —
// key order, number spelling and string escaping included; the
// conformance tests compare against an encoding/json oracle. Nothing
// here sorts: order comes from the core.LinkIndex.

// appendString appends s as a JSON string. IXP and scenario names are
// plain ASCII in every world the generator builds, so the common case
// is a byte check and a copy; a name that needs escaping takes the
// encoding/json route, which by construction escapes the way the old
// DTO renders did.
//
//mlplint:allocfree
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendEscaped(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendEscaped is appendString's slow path.
func appendEscaped(dst []byte, s string) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic("serve: string marshal: " + err.Error()) // cannot happen: strings always marshal
	}
	return append(dst, b...)
}

// appendField appends key — spelled with its punctuation, e.g.
// `,"b":` — followed by a non-negative integer.
//
//mlplint:allocfree
func appendField(dst []byte, key string, v uint64) []byte {
	dst = append(dst, key...)
	return strconv.AppendUint(dst, v, 10)
}

// appendLink appends one link object, `{"a":A,"b":B,"ixps":[...]}`.
//
//mlplint:allocfree
func appendLink(dst []byte, key topology.LinkKey, ixps []string) []byte {
	dst = appendField(dst, `{"a":`, uint64(key.A))
	dst = appendField(dst, `,"b":`, uint64(key.B))
	dst = append(dst, `,"ixps":`...)
	dst = appendNames(dst, ixps)
	return append(dst, '}')
}

// appendNames appends a JSON array of names.
//
//mlplint:allocfree
func appendNames(dst []byte, names []string) []byte {
	dst = append(dst, '[')
	for i, name := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, name)
	}
	return append(dst, ']')
}

// appendLinkArray appends the JSON array of every link of the index.
//
//mlplint:allocfree
func appendLinkArray(dst []byte, links []core.IndexedLink) []byte {
	dst = append(dst, '[')
	for i, l := range links {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendLink(dst, l.Key, l.IXPs)
	}
	return append(dst, ']')
}

// appendMeshHead appends a /v1/mesh body up to and including
// `"links":`; the body is completed by the encoded link array and a
// closing brace. Built once per epoch, never on the read path.
func appendMeshHead(dst []byte, epoch, fingerprint uint64) []byte {
	dst = appendField(dst, `{"epoch":`, epoch)
	dst = append(dst, `,"fingerprint":"`...)
	dst = append(dst, FingerprintHex(fingerprint)...)
	return append(dst, `","links":`...)
}

// appendAS appends the /v1/as/<asn> body; rows is the AS's adjacency
// row (LinkIndex.ASLinks), so the cost is O(degree).
//
//mlplint:allocfree
func appendAS(dst []byte, epoch uint64, x *core.LinkIndex, asn bgp.ASN, rows []uint32) []byte {
	dst = appendField(dst, `{"epoch":`, epoch)
	dst = appendField(dst, `,"asn":`, uint64(asn))
	dst = append(dst, `,"links":[`...)
	for i, li := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		l := &x.Links[li]
		dst = appendLink(dst, l.Key, l.IXPs)
	}
	return append(dst, `]}`...)
}

// asBodySize estimates an /v1/as/<asn> body from the AS's degree (a
// single-IXP link encodes to ~45 bytes), so the render usually appends
// into one allocation.
//
//mlplint:allocfree
func asBodySize(rows []uint32) int { return 64 + 64*len(rows) }

// appendLinkLookup appends the /v1/link body for one pair.
//
//mlplint:allocfree
func appendLinkLookup(dst []byte, epoch uint64, r *core.Result, a, b bgp.ASN) []byte {
	key := topology.MakeLinkKey(a, b)
	ixps, present := r.Links[key]
	dst = appendField(dst, `{"epoch":`, epoch)
	dst = appendField(dst, `,"a":`, uint64(key.A))
	dst = appendField(dst, `,"b":`, uint64(key.B))
	dst = append(dst, `,"present":`...)
	dst = strconv.AppendBool(dst, present)
	dst = append(dst, `,"ixps":`...)
	dst = appendNames(dst, ixps)
	return append(dst, '}')
}

// appendIXPLead appends the fields /v1/ixps and /v1/ixp/<name> share
// ahead of their tails: `"name":…,"members":…,"covered":`.
//
//mlplint:allocfree
func appendIXPLead(dst []byte, name string, inf *core.IXPInference) []byte {
	dst = append(dst, `"name":`...)
	dst = appendString(dst, name)
	dst = appendField(dst, `,"members":`, uint64(len(inf.Members)))
	return append(dst, `,"covered":`...)
}

// appendIXP appends the /v1/ixp/<name> body; rows is the IXP's
// adjacency row (LinkIndex.IXPLinks). Every link carries the same
// one-name attribution, so that tail is encoded once.
//
//mlplint:allocfree
func appendIXP(dst []byte, epoch uint64, x *core.LinkIndex, name string, inf *core.IXPInference, rows []uint32) []byte {
	dst = appendField(dst, `{"epoch":`, epoch)
	dst = append(dst, ',')
	dst = appendIXPLead(dst, name, inf)
	dst = append(dst, '[')
	for i, asn := range inf.CoveredMembers() {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(asn), 10)
	}
	dst = appendField(dst, `],"passive":`, uint64(inf.PassiveCount()))
	dst = appendField(dst, `,"active":`, uint64(inf.ActiveCount()))
	dst = append(dst, `,"links":[`...)
	var tailBuf [64]byte
	tail := append(tailBuf[:0], `,"ixps":[`...)
	tail = appendString(tail, name)
	tail = append(tail, `]}`...)
	for i, li := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		key := x.Links[li].Key
		dst = appendField(dst, `{"a":`, uint64(key.A))
		dst = appendField(dst, `,"b":`, uint64(key.B))
		dst = append(dst, tail...)
	}
	return append(dst, `]}`...)
}

// ixpBodySize bounds an /v1/ixp/<name> body from above, so the render
// appends into one allocation.
//
//mlplint:allocfree
func ixpBodySize(name string, inf *core.IXPInference, rows []uint32) int {
	return 128 + 2*len(name) + 11*len(inf.Filters) + (40+2*len(name))*len(rows)
}

// appendIXPList appends the /v1/ixps body: one summary row per IXP in
// the index's ascending name order.
//
//mlplint:allocfree
func appendIXPList(dst []byte, epoch uint64, r *core.Result, x *core.LinkIndex) []byte {
	dst = appendField(dst, `{"epoch":`, epoch)
	dst = append(dst, `,"ixps":[`...)
	for i, name := range x.IXPs {
		if i > 0 {
			dst = append(dst, ',')
		}
		inf := r.PerIXP[name]
		dst = append(dst, '{')
		dst = appendIXPLead(dst, name, inf)
		dst = strconv.AppendUint(dst, uint64(len(inf.CoveredMembers())), 10)
		dst = appendField(dst, `,"passive":`, uint64(inf.PassiveCount()))
		dst = appendField(dst, `,"active":`, uint64(inf.ActiveCount()))
		dst = appendField(dst, `,"links":`, uint64(len(inf.Links)))
		dst = append(dst, '}')
	}
	return append(dst, `]}`...)
}
