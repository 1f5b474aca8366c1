package mrt

import (
	"bytes"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mlpeering/internal/bgp"
)

func samplePeerIndex() *PeerIndexTable {
	return &PeerIndexTable{
		CollectorID: netip.MustParseAddr("198.51.100.1"),
		ViewName:    "rrc00",
		Peers: []Peer{
			{BGPID: netip.MustParseAddr("10.0.0.1"), Addr: netip.MustParseAddr("192.0.2.1"), ASN: 11666},
			{BGPID: netip.MustParseAddr("10.0.0.2"), Addr: netip.MustParseAddr("2001:db8::2"), ASN: 196615},
		},
	}
}

func sampleAttrs(path ...bgp.ASN) *bgp.PathAttrs {
	return &bgp.PathAttrs{
		Origin:  bgp.OriginIGP,
		ASPath:  bgp.NewASPath(path...),
		NextHop: netip.MustParseAddr("192.0.2.1"),
		Communities: bgp.Communities{
			bgp.MakeCommunity(0, 6695),
			bgp.MakeCommunity(6695, 8359),
		},
	}
}

func TestPeerIndexTableRoundTrip(t *testing.T) {
	in := samplePeerIndex()
	body, err := appendPeerIndexTable(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := unmarshalPeerIndexTable(body)
	if err != nil {
		t.Fatal(err)
	}
	if out.CollectorID != in.CollectorID || out.ViewName != in.ViewName {
		t.Fatalf("header: %+v", out)
	}
	if len(out.Peers) != 2 {
		t.Fatalf("peers: %d", len(out.Peers))
	}
	for i := range in.Peers {
		if out.Peers[i] != in.Peers[i] {
			t.Fatalf("peer %d: %+v vs %+v", i, out.Peers[i], in.Peers[i])
		}
	}
}

func TestPeerIndexTableEmpty(t *testing.T) {
	in := &PeerIndexTable{ViewName: ""}
	body, err := appendPeerIndexTable(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := unmarshalPeerIndexTable(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Peers) != 0 || out.ViewName != "" {
		t.Fatalf("%+v", out)
	}
}

func TestUnmarshalPeerIndexTableErrors(t *testing.T) {
	good, _ := appendPeerIndexTable(nil, samplePeerIndex())
	for cut := 1; cut < len(good); cut += 7 {
		if _, err := unmarshalPeerIndexTable(good[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestRIBRecordRoundTrip(t *testing.T) {
	in := &RIBRecord{
		Sequence: 42,
		Prefix:   bgp.MustPrefix("193.0.0.0/21"),
		Entries: []RIBEntry{
			{PeerIndex: 0, Originated: time.Unix(1368000000, 0).UTC(), Attrs: sampleAttrs(11666, 3356, 6695)},
			{PeerIndex: 1, Originated: time.Unix(1368000500, 0).UTC(), Attrs: sampleAttrs(196615, 8359)},
		},
	}
	body, err := appendRIBRecord(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeRIB(body, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Sequence != 42 || out.Prefix != in.Prefix || len(out.Entries) != 2 {
		t.Fatalf("%+v", out)
	}
	for i := range in.Entries {
		if out.Entries[i].PeerIndex != in.Entries[i].PeerIndex {
			t.Fatalf("entry %d peer index", i)
		}
		if !out.Entries[i].Originated.Equal(in.Entries[i].Originated) {
			t.Fatalf("entry %d originated %v", i, out.Entries[i].Originated)
		}
		if !out.Entries[i].Attrs.ASPath.Equal(in.Entries[i].Attrs.ASPath) {
			t.Fatalf("entry %d path", i)
		}
		if !out.Entries[i].Attrs.Communities.Equal(in.Entries[i].Attrs.Communities) {
			t.Fatalf("entry %d communities", i)
		}
	}
}

func TestRIBRecordTrailingGarbage(t *testing.T) {
	in := &RIBRecord{Prefix: bgp.MustPrefix("10.0.0.0/8"), Entries: []RIBEntry{{Attrs: sampleAttrs(1)}}}
	body, _ := appendRIBRecord(nil, in)
	if _, err := decodeRIB(append(body, 0xAA), 1); err == nil {
		t.Fatal("trailing bytes must error")
	}
}

func TestBGP4MPRoundTrip(t *testing.T) {
	upd := &bgp.Update{
		Attrs: sampleAttrs(11666, 3356),
		NLRI:  []bgp.Prefix{bgp.MustPrefix("203.0.113.0/24")},
	}
	in := &BGP4MPMessage{
		PeerASN:   196615,
		LocalASN:  6447,
		PeerAddr:  netip.MustParseAddr("192.0.2.9"),
		LocalAddr: netip.MustParseAddr("192.0.2.10"),
		Message:   upd,
		AS4:       true,
	}
	body, err := appendBGP4MP(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := unmarshalBGP4MP(body, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.PeerASN != in.PeerASN || out.LocalASN != in.LocalASN || out.PeerAddr != in.PeerAddr {
		t.Fatalf("%+v", out)
	}
	gotUpd, ok := out.Message.(*bgp.Update)
	if !ok {
		t.Fatalf("message type %T", out.Message)
	}
	if !gotUpd.Attrs.ASPath.Equal(upd.Attrs.ASPath) || gotUpd.NLRI[0] != upd.NLRI[0] {
		t.Fatalf("update: %+v", gotUpd)
	}
}

func TestBGP4MPLegacy2Byte(t *testing.T) {
	// The legacy subtype carries two-octet ASNs.
	in := &BGP4MPMessage{
		PeerASN:  6695,
		LocalASN: 6447,
		Message:  bgp.Keepalive{},
		AS4:      false,
	}
	body, err := appendBGP4MP(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := unmarshalBGP4MP(body, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.PeerASN != 6695 || out.AS4 {
		t.Fatalf("%+v", out)
	}
}

// TestBGP4MPLegacyRejects4OctetASN: a 4-octet peer or local ASN in the
// two-octet subtype is an encode error naming BGP4MP_MESSAGE_AS4, not a
// silent truncation to its low 16 bits; the writer passes it through.
func TestBGP4MPLegacyRejects4OctetASN(t *testing.T) {
	for _, in := range []*BGP4MPMessage{
		{PeerASN: 196615, LocalASN: 6447, Message: bgp.Keepalive{}},
		{PeerASN: 6695, LocalASN: 4200000001, Message: bgp.Keepalive{}},
	} {
		body, err := appendBGP4MP(nil, in)
		if err == nil || !strings.Contains(err.Error(), "BGP4MP_MESSAGE_AS4") {
			t.Fatalf("peer %s, local %s: %d bytes, err %v; want an error naming BGP4MP_MESSAGE_AS4", in.PeerASN, in.LocalASN, len(body), err)
		}
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteBGP4MP(time.Unix(1368000000, 0), in); err == nil {
			t.Fatalf("peer %s, local %s: Writer.WriteBGP4MP accepted the record", in.PeerASN, in.LocalASN)
		}
		in.AS4 = true
		if _, err := appendBGP4MP(nil, in); err != nil {
			t.Fatalf("the AS4 subtype rejects peer %s, local %s: %v", in.PeerASN, in.LocalASN, err)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ribPath := filepath.Join(dir, "rib.mrt")
	updPath := filepath.Join(dir, "updates.mrt")

	var ribBuf, updBuf bytes.Buffer
	w := NewWriter(&ribBuf)
	ts := time.Unix(1368000000, 0).UTC()
	if err := w.WritePeerIndexTable(ts, samplePeerIndex()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		rib := &RIBRecord{
			Sequence: uint32(i),
			Prefix:   bgp.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16),
			Entries:  []RIBEntry{{PeerIndex: 0, Originated: ts, Attrs: sampleAttrs(11666, bgp.ASN(100+i))}},
		}
		if err := w.WriteRIB(ts, rib); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	uw := NewWriter(&updBuf)
	for i := 0; i < 5; i++ {
		m := &BGP4MPMessage{
			PeerASN:  11666,
			LocalASN: 6447,
			Message: &bgp.Update{
				Attrs: sampleAttrs(11666, bgp.ASN(200+i)),
				NLRI:  []bgp.Prefix{bgp.PrefixFrom(netip.AddrFrom4([4]byte{172, 16, byte(i), 0}), 24)},
			},
			AS4: true,
		}
		if err := uw.WriteBGP4MP(ts.Add(time.Duration(i)*time.Minute), m); err != nil {
			t.Fatal(err)
		}
	}
	if err := uw.Flush(); err != nil {
		t.Fatal(err)
	}

	if err := writeFile(ribPath, ribBuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(updPath, updBuf.Bytes()); err != nil {
		t.Fatal(err)
	}

	dump, err := ReadDumpFile(ribPath)
	if err != nil {
		t.Fatal(err)
	}
	if dump.Index == nil || len(dump.Index.Peers) != 2 {
		t.Fatalf("index: %+v", dump.Index)
	}
	if len(dump.RIBs) != 10 {
		t.Fatalf("ribs: %d", len(dump.RIBs))
	}
	if dump.RIBs[3].Sequence != 3 {
		t.Fatalf("sequence order: %d", dump.RIBs[3].Sequence)
	}

	ups, err := ReadUpdatesFile(updPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 5 {
		t.Fatalf("updates: %d", len(ups))
	}
	if ups[2].Message.(*bgp.Update).Attrs.ASPath.String() != "11666 202" {
		t.Fatalf("update 2 path: %v", ups[2].Message.(*bgp.Update).Attrs.ASPath)
	}
}

// decodeRIB decodes one IPv4 RIB body into a fresh arena whose peer
// table holds peers peers.
func decodeRIB(body []byte, peers int) (*RIBRecord, error) {
	var a dumpArena
	a.setPeers(peers)
	return unmarshalRIBRecord(body, false, &a)
}

// TestReadDumpRejectsOrphanRIBs: a RIB record needs the peer index
// table before it (RFC 6396 §4.3), and each of its entries a peer the
// table holds.
func TestReadDumpRejectsOrphanRIBs(t *testing.T) {
	ts := time.Unix(1368000000, 0)
	rib := &RIBRecord{Prefix: bgp.MustPrefix("10.0.0.0/8"), Entries: []RIBEntry{{Attrs: sampleAttrs(1)}}}
	stray := &RIBRecord{Prefix: bgp.MustPrefix("10.0.0.0/8"), Entries: []RIBEntry{{PeerIndex: 2, Attrs: sampleAttrs(1)}}}
	for _, c := range []struct {
		name  string
		write func(w *Writer) error
		want  string
	}{
		{"no index", func(w *Writer) error { return w.WriteRIB(ts, rib) }, "before the peer index table"},
		{"index after the RIB", func(w *Writer) error {
			if err := w.WriteRIB(ts, rib); err != nil {
				return err
			}
			return w.WritePeerIndexTable(ts, samplePeerIndex())
		}, "before the peer index table"},
		{"peer outside the table", func(w *Writer) error {
			if err := w.WritePeerIndexTable(ts, samplePeerIndex()); err != nil {
				return err
			}
			return w.WriteRIB(ts, stray)
		}, "peer 2 outside the 2-peer index table"},
	} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := c.write(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadDump(&buf); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one containing %q", c.name, err, c.want)
		}
	}
}

func TestReaderTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePeerIndexTable(time.Now(), samplePeerIndex()); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	full := buf.Bytes()
	r := newReader(bytes.NewReader(full[:len(full)-3]))
	if err := r.readInto(&Record{}); err == nil {
		t.Fatal("truncated body must error")
	}

	// Truncation inside the header is a distinct error.
	r2 := newReader(bytes.NewReader(full[:5]))
	if err := r2.readInto(&Record{}); err != ErrShortHeader {
		t.Fatalf("want ErrShortHeader, got %v", err)
	}
}

func TestTimestampPrecision(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ts := time.Date(2013, 5, 1, 0, 0, 0, 0, time.UTC)
	if err := w.WriteRecord(ts, TypeBGP4MP, SubtypeBGP4MPMessageAS4, nil); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	var rec Record
	if err := newReader(&buf).readInto(&rec); err != nil {
		t.Fatal(err)
	}
	if !rec.Timestamp.Equal(ts) {
		t.Fatalf("timestamp %v, want %v", rec.Timestamp, ts)
	}
}

func TestRIBRecordRoundTripProperty(t *testing.T) {
	f := func(seq uint32, a, b, c uint8, bits uint8, peerIdx uint16) bool {
		r := &RIBRecord{
			Sequence: seq,
			Prefix:   bgp.PrefixFrom(netip.AddrFrom4([4]byte{a, b, c, 0}), int(bits%25)),
			Entries: []RIBEntry{{
				PeerIndex:  peerIdx,
				Originated: time.Unix(1368000000, 0).UTC(),
				Attrs:      sampleAttrs(bgp.ASN(a)+1, bgp.ASN(b)+1),
			}},
		}
		body, err := appendRIBRecord(nil, r)
		if err != nil {
			return false
		}
		out, err := decodeRIB(body, int(peerIdx)+1)
		if err != nil {
			return false
		}
		return out.Sequence == seq && out.Prefix == r.Prefix && out.Entries[0].PeerIndex == peerIdx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func writeFile(path string, data []byte) error {
	return osWriteFile(path, data)
}

func osWriteFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
