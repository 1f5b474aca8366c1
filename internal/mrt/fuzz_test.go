package mrt

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"mlpeering/internal/bgp"
)

// validArchive is a small well-formed archive holding both record
// families, the seed the fuzzers mutate from.
func validArchive(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ts := time.Unix(1367366400, 0)
	if err := w.WritePeerIndexTable(ts, samplePeerIndex()); err != nil {
		t.Fatal(err)
	}
	rib := &RIBRecord{Sequence: 7, Prefix: bgp.MustPrefix("203.0.113.0/24"), Entries: []RIBEntry{
		{PeerIndex: 0, Originated: ts, Attrs: sampleAttrs(11666, 8359)},
		{PeerIndex: 1, Originated: ts, Attrs: sampleAttrs(196615, 8359)},
	}}
	if err := w.WriteRIB(ts, rib); err != nil {
		t.Fatal(err)
	}
	upd := &BGP4MPMessage{PeerASN: 11666, LocalASN: 64512, AS4: true,
		PeerAddr: samplePeerIndex().Peers[0].Addr, LocalAddr: samplePeerIndex().Peers[0].BGPID,
		Message: &bgp.Update{NLRI: []bgp.Prefix{rib.Prefix}, Attrs: sampleAttrs(11666, 8359)}}
	if err := w.WriteBGP4MP(ts, upd); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sharingArchive is a seed whose second record repeats peer 0's block
// and changes one of peer 1's communities, so one entry shares its
// peer's decoded attributes and the other must not.
func sharingArchive(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ts := time.Unix(1367366400, 0)
	if err := w.WritePeerIndexTable(ts, samplePeerIndex()); err != nil {
		t.Fatal(err)
	}
	changed := sampleAttrs(196615, 8359)
	changed.Communities = bgp.Communities{bgp.MakeCommunity(0, 6695), bgp.MakeCommunity(6695, 8360)}
	for i, p1 := range []*bgp.PathAttrs{sampleAttrs(196615, 8359), changed} {
		rib := &RIBRecord{Sequence: uint32(i), Prefix: bgp.PrefixFrom(netip.AddrFrom4([4]byte{203, 0, byte(113 + i), 0}), 24), Entries: []RIBEntry{
			{PeerIndex: 0, Originated: ts, Attrs: sampleAttrs(11666, 8359)},
			{PeerIndex: 1, Originated: ts, Attrs: p1},
		}}
		if err := w.WriteRIB(ts, rib); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadDump: whatever bytes an archive holds, ReadDump returns a
// dump or an error — it never panics. testdata/fuzz/FuzzReadDump holds
// the inputs that once did: the 20-byte record whose prefix length
// byte runs the prefix slice past the body, the length that wraps in
// uint8, and entry/peer counts the body cannot hold. A decoded dump is
// checked against an unshared decode: every entry's attributes equal
// bgp.DecodeAttrs of that entry's own bytes, and two entries share one
// *bgp.PathAttrs only when their bytes are equal.
func FuzzReadDump(f *testing.F) {
	f.Add(validArchive(f))
	f.Add(sharingArchive(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDump(bytes.NewReader(data))
		if err != nil {
			return
		}
		if d == nil {
			t.Fatal("nil dump without an error")
		}
		CheckAgainstBlocks(t, d, EntryBlocks(data))
	})
}

// FuzzReadUpdates is the same contract for the BGP4MP update reader.
func FuzzReadUpdates(f *testing.F) {
	f.Add(validArchive(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		ms, err := ReadUpdates(bytes.NewReader(data))
		if err != nil && ms != nil {
			t.Fatal("messages returned alongside an error")
		}
	})
}
