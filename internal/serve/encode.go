package serve

import (
	"bytes"
	"strconv"

	"mlpeering/internal/bgp"
	"mlpeering/internal/core"
)

// The append encoder: every mesh-shaped body (mesh, ixps, ixp, link,
// as) is written by these functions into a caller-supplied buffer with
// core's link encoder (core.AppendLink and its helpers), in the exact
// bytes encoding/json produced for the DTOs they replaced; the
// conformance tests compare against an encoding/json oracle. Nothing
// here sorts: order comes from the core.LinkIndex.
//
// The gateway copies its link bytes out of the index's Encoded array —
// /v1/mesh whole, /v1/as and /v1/ixp rows as runs (appendASCopy,
// appendIXPCopy); only /v1/link formats per request. The other bodies
// and the per-IXP heads are encoded once per snapshot. appendAS and
// appendIXP format every link afresh for the Render* oracles.

// appendLinkArray appends the JSON array of every link of the index.
//
//mlplint:allocfree
func appendLinkArray(dst []byte, links []core.IndexedLink) []byte {
	dst = append(dst, '[')
	for i, l := range links {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = core.AppendLink(dst, l.Key, l.IXPs)
	}
	return append(dst, ']')
}

// appendMeshHead appends a /v1/mesh body up to and including
// `"links":`; the body is completed by the encoded link array and a
// closing brace. Built once per epoch, never on the read path.
func appendMeshHead(dst []byte, epoch, fingerprint uint64) []byte {
	dst = core.AppendField(dst, `{"epoch":`, epoch)
	dst = append(dst, `,"fingerprint":"`...)
	dst = append(dst, fingerprintHex(fingerprint)...)
	return append(dst, `","links":`...)
}

// appendASHead appends an /v1/as/<asn> body up to and including
// `"links":[`.
//
//mlplint:allocfree
func appendASHead(dst []byte, epoch uint64, asn bgp.ASN) []byte {
	dst = core.AppendField(dst, `{"epoch":`, epoch)
	dst = core.AppendField(dst, `,"asn":`, uint64(asn))
	return append(dst, `,"links":[`...)
}

// appendAS appends the /v1/as/<asn> body, formatting each link afresh;
// rows is the AS's adjacency row (LinkIndex.ASLinks), so the cost is
// O(degree).
//
//mlplint:allocfree
func appendAS(dst []byte, epoch uint64, x *core.LinkIndex, asn bgp.ASN, rows []uint32) []byte {
	dst = appendASHead(dst, epoch, asn)
	for i, li := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		l := &x.Links[li]
		dst = core.AppendLink(dst, l.Key, l.IXPs)
	}
	return append(dst, `]}`...)
}

// appendASCopy is appendAS off x.Encoded: an AS's row is its links'
// mesh encodings, and every run of consecutive link indices — all the
// links the AS is the lower endpoint of form one — is one copy.
//
//mlplint:allocfree
func appendASCopy(dst []byte, epoch uint64, x *core.LinkIndex, asn bgp.ASN, rows []uint32) []byte {
	dst = appendASHead(dst, epoch, asn)
	for k := 0; k < len(rows); {
		if k > 0 {
			dst = append(dst, ',')
		}
		start := rows[k]
		for k++; k < len(rows) && rows[k] == rows[k-1]+1; k++ {
		}
		dst = append(dst, x.EncodedRun(int(start), int(rows[k-1])+1)...)
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
	key := bgp.MakeLinkKey(a, b)
	ixps, present := r.Links[key]
	dst = core.AppendField(dst, `{"epoch":`, epoch)
	dst = core.AppendField(dst, `,"a":`, uint64(key.A))
	dst = core.AppendField(dst, `,"b":`, uint64(key.B))
	dst = append(dst, `,"present":`...)
	dst = strconv.AppendBool(dst, present)
	dst = append(dst, `,"ixps":`...)
	dst = core.AppendNames(dst, ixps)
	return append(dst, '}')
}

// appendIXPLead appends the fields /v1/ixps and /v1/ixp/<name> share
// ahead of their tails: `"name":…,"members":…,"covered":`.
//
//mlplint:allocfree
func appendIXPLead(dst []byte, name string, inf *core.IXPInference) []byte {
	dst = append(dst, `"name":`...)
	dst = core.AppendString(dst, name)
	dst = core.AppendField(dst, `,"members":`, uint64(len(inf.Members)))
	return append(dst, `,"covered":`...)
}

// appendIXPHead appends an /v1/ixp/<name> body up to and including
// `"links":[`: the epoch, the shared lead, the covered members, and
// the passive and active counts. The gateway encodes it once per
// snapshot (Snapshot.ixpHeads).
//
//mlplint:allocfree
func appendIXPHead(dst []byte, epoch uint64, name string, inf *core.IXPInference) []byte {
	dst = core.AppendField(dst, `{"epoch":`, epoch)
	dst = append(dst, ',')
	dst = appendIXPLead(dst, name, inf)
	dst = append(dst, '[')
	for i, s := range inf.Covered {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(s.ASN), 10)
	}
	dst = core.AppendField(dst, `],"passive":`, uint64(inf.PassiveCount()))
	dst = core.AppendField(dst, `,"active":`, uint64(inf.ActiveCount()))
	return append(dst, `,"links":[`...)
}

// appendIXP appends the /v1/ixp/<name> body, formatting each link
// afresh; rows is the IXP's adjacency row (LinkIndex.IXPLinks). Every
// link carries the same one-name attribution, so that tail is encoded
// once.
//
//mlplint:allocfree
func appendIXP(dst []byte, epoch uint64, x *core.LinkIndex, name string, inf *core.IXPInference, rows []uint32) []byte {
	dst = appendIXPHead(dst, epoch, name, inf)
	var tailBuf [64]byte
	tail := append(tailBuf[:0], `,"ixps":[`...)
	tail = core.AppendString(tail, name)
	tail = append(tail, `]}`...)
	for i, li := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		key := x.Links[li].Key
		dst = core.AppendField(dst, `{"a":`, uint64(key.A))
		dst = core.AppendField(dst, `,"b":`, uint64(key.B))
		dst = append(dst, tail...)
	}
	return append(dst, `]}`...)
}

// appendIXPCopy appends the link entries of an /v1/ixp/<name> body —
// what goes between its head and the closing `]}` — off x.Encoded. A
// link attributed to this IXP alone encodes exactly as in the mesh, so
// every run of consecutive such links is one copy; a multi-IXP link
// keeps its mesh encoding up to and including `"ixps":[`, then gets
// this IXP's name alone.
//
//mlplint:allocfree
func appendIXPCopy(dst []byte, x *core.LinkIndex, name string, rows []uint32) []byte {
	var tailBuf [64]byte
	tail := core.AppendString(tailBuf[:0], name)
	tail = append(tail, `]}`...)
	for k := 0; k < len(rows); {
		if k > 0 {
			dst = append(dst, ',')
		}
		start := rows[k]
		if len(x.Links[start].IXPs) > 1 {
			enc := x.EncodedRun(int(start), int(start)+1)
			dst = append(dst, enc[:bytes.IndexByte(enc, '[')+1]...) // numbers hold no '[': it opens "ixps"
			dst = append(dst, tail...)
			k++
			continue
		}
		for k++; k < len(rows) && rows[k] == rows[k-1]+1 && len(x.Links[rows[k]].IXPs) == 1; k++ {
		}
		dst = append(dst, x.EncodedRun(int(start), int(rows[k-1])+1)...)
	}
	return dst
}

// ixpBodySize bounds an /v1/ixp/<name> body from above, so the render
// appends into one allocation.
//
//mlplint:allocfree
func ixpBodySize(name string, inf *core.IXPInference, rows []uint32) int {
	return 128 + 2*len(name) + 11*len(inf.Covered) + (40+2*len(name))*len(rows)
}

// appendIXPList appends the /v1/ixps body: one summary row per IXP in
// the index's ascending name order.
//
//mlplint:allocfree
func appendIXPList(dst []byte, epoch uint64, r *core.Result, x *core.LinkIndex) []byte {
	dst = core.AppendField(dst, `{"epoch":`, epoch)
	dst = append(dst, `,"ixps":[`...)
	for i, name := range x.IXPs {
		if i > 0 {
			dst = append(dst, ',')
		}
		inf := r.PerIXP[name]
		rows, _ := x.IXPLinks(name)
		dst = append(dst, '{')
		dst = appendIXPLead(dst, name, inf)
		dst = strconv.AppendUint(dst, uint64(len(inf.Covered)), 10)
		dst = core.AppendField(dst, `,"passive":`, uint64(inf.PassiveCount()))
		dst = core.AppendField(dst, `,"active":`, uint64(inf.ActiveCount()))
		dst = core.AppendField(dst, `,"links":`, uint64(len(rows)))
		dst = append(dst, '}')
	}
	return append(dst, `]}`...)
}
