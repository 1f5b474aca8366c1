// Package mrt implements the MRT export format (RFC 6396) used by the
// Route Views and RIPE RIS collector archives: TABLE_DUMP_V2 RIB dumps
// and BGP4MP update traces.
//
// The inference pipeline in internal/core consumes these records exactly
// as it would consume records downloaded from a real collector archive,
// so community transitivity, AS-path encoding and peer indexing are all
// exercised end to end.
package mrt

import (
	"bytes"
	"fmt"
	"net/netip"
	"time"

	"mlpeering/internal/bgp"
)

// MRT record types and subtypes used here (RFC 6396 §4).
const (
	TypeTableDumpV2 = 13
	TypeBGP4MP      = 16

	SubtypePeerIndexTable = 1
	SubtypeRIBIPv4Unicast = 2
	SubtypeRIBIPv6Unicast = 4

	SubtypeBGP4MPMessage    = 1
	SubtypeBGP4MPMessageAS4 = 4
)

// Record is a raw MRT record: common header plus undecoded body.
type Record struct {
	Timestamp time.Time
	Type      uint16
	Subtype   uint16
	Body      []byte
}

// Peer describes one collector peer in a PEER_INDEX_TABLE.
type Peer struct {
	BGPID netip.Addr
	Addr  netip.Addr
	ASN   bgp.ASN
}

// PeerIndexTable is the TABLE_DUMP_V2 PEER_INDEX_TABLE record.
type PeerIndexTable struct {
	CollectorID netip.Addr
	ViewName    string
	Peers       []Peer
}

// RIBEntry is one path for a prefix in a RIB record, attributed to the
// collector peer that advertised it. A decoded entry's Attrs is
// read-only: when an entry's attribute bytes equal those of its peer's
// previous entry, ReadDump gives both entries one *bgp.PathAttrs, so a
// caller that edits attributes clones them first.
type RIBEntry struct {
	PeerIndex  uint16
	Originated time.Time
	Attrs      *bgp.PathAttrs
}

// RIBRecord is a TABLE_DUMP_V2 RIB_IPV4_UNICAST / RIB_IPV6_UNICAST record.
type RIBRecord struct {
	Sequence uint32
	Prefix   bgp.Prefix
	Entries  []RIBEntry
}

// BGP4MPMessage is a BGP4MP_MESSAGE(_AS4) record carrying one BGP
// message heard from a collector peer. Timestamp is the MRT record
// header's collection time: it is not part of the message body on the
// wire, but the windowed passive pipeline needs it to bucket updates,
// so ReadUpdates carries it through.
type BGP4MPMessage struct {
	Timestamp time.Time
	PeerASN   bgp.ASN
	LocalASN  bgp.ASN
	Interface uint16
	PeerAddr  netip.Addr
	LocalAddr netip.Addr
	Message   bgp.Message
	AS4       bool
}

func put16(dst []byte, v uint16) []byte { return append(dst, byte(v>>8), byte(v)) }
func put32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func get16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
func get32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// need guards slice accesses during decoding.
func need(b []byte, n int, what string) error {
	if len(b) < n {
		return fmt.Errorf("mrt: truncated %s: need %d bytes, have %d", what, n, len(b))
	}
	return nil
}

// appendPeerIndexTable appends the encoded table to b and returns the
// extended slice, reusing b's capacity.
func appendPeerIndexTable(b []byte, t *PeerIndexTable) ([]byte, error) {
	if len(t.Peers) > 0xFFFF {
		return nil, fmt.Errorf("mrt: %d peers exceed peer index table capacity", len(t.Peers))
	}
	cid := t.CollectorID
	if !cid.IsValid() {
		cid = netip.AddrFrom4([4]byte{})
	}
	b = append(b, cid.AsSlice()...)
	if len(t.ViewName) > 0xFFFF {
		return nil, fmt.Errorf("mrt: view name too long")
	}
	b = put16(b, uint16(len(t.ViewName)))
	b = append(b, t.ViewName...)
	b = put16(b, uint16(len(t.Peers)))
	for _, p := range t.Peers {
		var ptype byte = 0x02 // AS4 always
		if p.Addr.Is6() {
			ptype |= 0x01
		}
		b = append(b, ptype)
		id := p.BGPID
		if !id.IsValid() {
			id = netip.AddrFrom4([4]byte{})
		}
		b = append(b, id.AsSlice()...)
		b = append(b, p.Addr.AsSlice()...)
		b = put32(b, uint32(p.ASN))
	}
	return b, nil
}

// unmarshalPeerIndexTable decodes a PEER_INDEX_TABLE body.
func unmarshalPeerIndexTable(b []byte) (*PeerIndexTable, error) {
	if err := need(b, 6, "peer index header"); err != nil {
		return nil, err
	}
	t := &PeerIndexTable{CollectorID: netip.AddrFrom4([4]byte(b[:4]))}
	nameLen := int(get16(b[4:]))
	b = b[6:]
	if err := need(b, nameLen+2, "view name"); err != nil {
		return nil, err
	}
	t.ViewName = string(b[:nameLen])
	b = b[nameLen:]
	count := int(get16(b))
	b = b[2:]
	// A peer entry is at least 11 bytes (type, BGP ID, IPv4 address,
	// 2-byte ASN): refuse a count the body cannot hold before it sizes
	// an allocation.
	if err := need(b, 11*count, "peer entries"); err != nil {
		return nil, err
	}
	t.Peers = make([]Peer, 0, count)
	for i := 0; i < count; i++ {
		if err := need(b, 5, "peer entry"); err != nil {
			return nil, err
		}
		ptype := b[0]
		b = b[1:]
		var p Peer
		p.BGPID = netip.AddrFrom4([4]byte(b[:4]))
		b = b[4:]
		addrLen := 4
		if ptype&0x01 != 0 {
			addrLen = 16
		}
		asnLen := 2
		if ptype&0x02 != 0 {
			asnLen = 4
		}
		if err := need(b, addrLen+asnLen, "peer address+ASN"); err != nil {
			return nil, err
		}
		addr, _ := netip.AddrFromSlice(b[:addrLen])
		p.Addr = addr
		b = b[addrLen:]
		if asnLen == 4 {
			p.ASN = bgp.ASN(get32(b))
		} else {
			p.ASN = bgp.ASN(get16(b))
		}
		b = b[asnLen:]
		t.Peers = append(t.Peers, p)
	}
	return t, nil
}

// appendRIBRecord appends the encoded record to b and returns the
// extended slice. Attributes are serialized in place with their length
// backpatched, so encoding one record performs no allocation beyond
// growing b.
func appendRIBRecord(b []byte, r *RIBRecord) ([]byte, error) {
	if len(r.Entries) > 0xFFFF {
		return nil, fmt.Errorf("mrt: %d RIB entries exceed capacity", len(r.Entries))
	}
	b = put32(b, r.Sequence)
	b = r.Prefix.AppendWire(b)
	b = put16(b, uint16(len(r.Entries)))
	for _, e := range r.Entries {
		b = put16(b, e.PeerIndex)
		b = put32(b, uint32(e.Originated.Unix()))
		lenAt := len(b)
		b = append(b, 0, 0) // attribute length, backpatched below
		var err error
		b, err = e.Attrs.AppendWire(b, true)
		if err != nil {
			return nil, err
		}
		alen := len(b) - lenAt - 2
		if alen > 0xFFFF {
			return nil, fmt.Errorf("mrt: attributes too long (%d)", alen)
		}
		b[lenAt], b[lenAt+1] = byte(alen>>8), byte(alen)
	}
	return b, nil
}

// dumpArena slab-allocates everything a decoded RIB dump retains:
// records, entry arrays, and (via the embedded bgp.AttrArena) the
// decoded path attributes. One archive decodes into one arena, cutting
// the retained allocations per RIB entry from ~4 to amortized zero.
// Chunks are never grown in place, so previously returned records stay
// valid. Not safe for concurrent use.
//
// last holds, per index of the current peer table, that peer's last
// attribute block: a collector writes one destination's prefixes one
// after another, so a feeder repeats its block record after record, and
// an entry whose bytes equal its peer's last ones shares their decoded
// attributes instead of decoding them again.
type dumpArena struct {
	attrs   bgp.AttrArena
	recs    []RIBRecord
	entries []RIBEntry
	last    []peerBlock
}

// peerBlock is one peer's last raw attribute block and the attributes
// decoded from it.
type peerBlock struct {
	raw   []byte
	attrs *bgp.PathAttrs
}

const (
	arenaRecChunk   = 1024
	arenaEntryChunk = 4096
)

// setPeers starts a peer table of n peers: entries may name indices
// below n, and no block is shared across tables.
func (a *dumpArena) setPeers(n int) { a.last = make([]peerBlock, n) }

// newRecord carves one zeroed RIBRecord.
func (a *dumpArena) newRecord() *RIBRecord {
	if len(a.recs) == cap(a.recs) {
		a.recs = make([]RIBRecord, 0, arenaRecChunk)
	}
	a.recs = a.recs[:len(a.recs)+1]
	return &a.recs[len(a.recs)-1]
}

// entrySlice carves a zero-length, capacity-n entry slice.
func (a *dumpArena) entrySlice(n int) []RIBEntry {
	if len(a.entries)+n > cap(a.entries) {
		c := arenaEntryChunk
		if n > c {
			c = n
		}
		a.entries = make([]RIBEntry, 0, c)
	}
	s := a.entries[len(a.entries) : len(a.entries) : len(a.entries)+n]
	a.entries = a.entries[:len(a.entries)+n]
	return s
}

// decodeAttrs returns the attributes of raw as peer announced them,
// shared with peer's previous entry when its bytes were the same.
func (a *dumpArena) decodeAttrs(peer uint16, raw []byte) (*bgp.PathAttrs, error) {
	if int(peer) >= len(a.last) {
		return nil, fmt.Errorf("mrt: RIB entry names peer %d outside the %d-peer index table", peer, len(a.last))
	}
	last := &a.last[peer]
	if last.attrs != nil && bytes.Equal(last.raw, raw) {
		return last.attrs, nil
	}
	attrs, err := bgp.DecodeAttrsArena(raw, true, &a.attrs)
	if err != nil {
		return nil, err
	}
	last.raw = append(last.raw[:0], raw...)
	last.attrs = attrs
	return attrs, nil
}

// unmarshalRIBRecord decodes a RIB_IPVx_UNICAST body, slab-allocating
// the record, its entries and their attributes from arena, whose peer
// table bounds the entries' peer indices.
func unmarshalRIBRecord(b []byte, v6 bool, arena *dumpArena) (*RIBRecord, error) {
	if err := need(b, 5, "RIB header"); err != nil {
		return nil, err
	}
	r := arena.newRecord()
	r.Sequence = get32(b)
	b = b[4:]
	// The prefix is a bit-length byte plus that many bits of address.
	// The length is computed in int: in uint8, b[0]+7 wraps for
	// lengths above 248 and the slice below would then run past a
	// short body.
	plen := 1 + (int(b[0])+7)/8
	if err := need(b, plen, "RIB prefix"); err != nil {
		return nil, err
	}
	pfxs, err := bgp.DecodePrefixes(b[:plen], v6)
	if err != nil {
		return nil, err
	}
	r.Prefix = pfxs[0]
	b = b[plen:]
	if err := need(b, 2, "RIB entry count"); err != nil {
		return nil, err
	}
	count := int(get16(b))
	b = b[2:]
	// Every entry has an 8-byte header, so a count the body cannot hold
	// is refused before it sizes an allocation.
	if err := need(b, 8*count, "RIB entries"); err != nil {
		return nil, err
	}
	r.Entries = arena.entrySlice(count)
	for i := 0; i < count; i++ {
		if err := need(b, 8, "RIB entry header"); err != nil {
			return nil, err
		}
		e := RIBEntry{
			PeerIndex:  get16(b),
			Originated: time.Unix(int64(get32(b[2:])), 0).UTC(),
		}
		alen := int(get16(b[6:]))
		b = b[8:]
		if err := need(b, alen, "RIB entry attributes"); err != nil {
			return nil, err
		}
		e.Attrs, err = arena.decodeAttrs(e.PeerIndex, b[:alen])
		if err != nil {
			return nil, err
		}
		b = b[alen:]
		r.Entries = append(r.Entries, e)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("mrt: %d trailing bytes after RIB record", len(b))
	}
	return r, nil
}

// appendBGP4MP appends the encoded body to b and returns the extended
// slice, reusing b's capacity. The two-octet BGP4MP_MESSAGE subtype
// cannot carry a 4-octet peer or local ASN: that is an error, not a
// truncation.
func appendBGP4MP(b []byte, m *BGP4MPMessage) ([]byte, error) {
	if m.AS4 {
		b = put32(b, uint32(m.PeerASN))
		b = put32(b, uint32(m.LocalASN))
	} else {
		if m.PeerASN.Is32Bit() || m.LocalASN.Is32Bit() {
			return nil, fmt.Errorf("mrt: peer AS %s / local AS %s: a 4-octet ASN needs the BGP4MP_MESSAGE_AS4 subtype", m.PeerASN, m.LocalASN)
		}
		b = put16(b, uint16(m.PeerASN))
		b = put16(b, uint16(m.LocalASN))
	}
	b = put16(b, m.Interface)
	afi := uint16(1)
	peer, local := m.PeerAddr, m.LocalAddr
	if !peer.IsValid() {
		peer = netip.AddrFrom4([4]byte{})
	}
	if !local.IsValid() {
		local = netip.AddrFrom4([4]byte{})
	}
	if peer.Is6() {
		afi = 2
	}
	b = put16(b, afi)
	b = append(b, peer.AsSlice()...)
	b = append(b, local.AsSlice()...)
	msg, err := bgp.Encode(m.Message)
	if err != nil {
		return nil, err
	}
	return append(b, msg...), nil
}

// unmarshalBGP4MP decodes a BGP4MP_MESSAGE(_AS4) body.
func unmarshalBGP4MP(b []byte, as4 bool) (*BGP4MPMessage, error) {
	m := &BGP4MPMessage{AS4: as4}
	asnLen := 2
	if as4 {
		asnLen = 4
	}
	if err := need(b, 2*asnLen+4, "BGP4MP header"); err != nil {
		return nil, err
	}
	if as4 {
		m.PeerASN = bgp.ASN(get32(b))
		m.LocalASN = bgp.ASN(get32(b[4:]))
	} else {
		m.PeerASN = bgp.ASN(get16(b))
		m.LocalASN = bgp.ASN(get16(b[2:]))
	}
	b = b[2*asnLen:]
	m.Interface = get16(b)
	afi := get16(b[2:])
	b = b[4:]
	addrLen := 4
	if afi == 2 {
		addrLen = 16
	}
	if err := need(b, 2*addrLen, "BGP4MP addresses"); err != nil {
		return nil, err
	}
	peer, _ := netip.AddrFromSlice(b[:addrLen])
	local, _ := netip.AddrFromSlice(b[addrLen : 2*addrLen])
	m.PeerAddr, m.LocalAddr = peer, local
	b = b[2*addrLen:]
	msg, err := bgp.Decode(b, as4)
	if err != nil {
		return nil, err
	}
	m.Message = msg
	return m, nil
}
