package mrt

import (
	"bytes"
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

// FuzzReadDump: whatever bytes an archive holds, ReadDump returns a
// dump or an error — it never panics. testdata/fuzz/FuzzReadDump holds
// the inputs that once did: the 20-byte record whose prefix length
// byte runs the prefix slice past the body, the length that wraps in
// uint8, and entry/peer counts the body cannot hold.
func FuzzReadDump(f *testing.F) {
	f.Add(validArchive(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDump(bytes.NewReader(data))
		if err == nil && d == nil {
			t.Fatal("nil dump without an error")
		}
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
