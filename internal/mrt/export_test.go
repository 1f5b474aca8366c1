package mrt

import (
	"bytes"
	"reflect"
	"testing"

	"mlpeering/internal/bgp"
)

// EntryBlocks returns the raw attribute bytes of every entry of every
// RIB record in archive, per record in archive order. It walks the wire
// layout itself, so tests can check ReadDump's entries against bytes
// the decoder did not hand them; archive must be one ReadDump accepts.
func EntryBlocks(archive []byte) [][][]byte {
	rd := newReader(bytes.NewReader(archive))
	var out [][][]byte
	for {
		var rec Record
		if rd.readInto(&rec) != nil {
			return out
		}
		if rec.Type != TypeTableDumpV2 || rec.Subtype != SubtypeRIBIPv4Unicast && rec.Subtype != SubtypeRIBIPv6Unicast {
			continue
		}
		b := rec.Body[4:]
		b = b[1+(int(b[0])+7)/8:]
		blocks := make([][]byte, get16(b))
		b = b[2:]
		for i := range blocks {
			alen := int(get16(b[6:]))
			blocks[i] = b[8 : 8+alen]
			b = b[8+alen:]
		}
		out = append(out, blocks)
	}
}

// CheckAgainstBlocks fails t unless d's entries decode blocks, the raw
// attribute bytes of each RIB record's entries in archive order, and
// share a *bgp.PathAttrs only between equal blocks.
func CheckAgainstBlocks(t testing.TB, d *Dump, blocks [][][]byte) {
	t.Helper()
	if len(blocks) != len(d.RIBs) {
		t.Fatalf("%d RIB records decoded, %d in the archive", len(d.RIBs), len(blocks))
	}
	owner := make(map[*bgp.PathAttrs][]byte)
	for i, rib := range d.RIBs {
		if len(blocks[i]) != len(rib.Entries) {
			t.Fatalf("record %d: %d entries decoded, %d in the archive", i, len(rib.Entries), len(blocks[i]))
		}
		for j, e := range rib.Entries {
			raw := blocks[i][j]
			want, err := bgp.DecodeAttrs(raw, true)
			if err != nil {
				t.Fatalf("record %d entry %d: ReadDump decoded bytes DecodeAttrs refuses: %v", i, j, err)
			}
			if !reflect.DeepEqual(e.Attrs, want) {
				t.Fatalf("record %d entry %d: attrs %+v, an unshared decode gives %+v", i, j, e.Attrs, want)
			}
			if prev, ok := owner[e.Attrs]; ok && !bytes.Equal(prev, raw) {
				t.Fatalf("record %d entry %d shares attributes decoded from other bytes", i, j)
			}
			owner[e.Attrs] = raw
		}
	}
}
