package collector

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/mrt"
	"mlpeering/internal/propagate"
	"mlpeering/internal/topology"
)

// seedWorld builds cfg's world and a collector over its feeders, and
// decodes the RIB dump another collector over the same feeders wrote
// from it, as the world build archives it.
func seedWorld(t testing.TB, cfg topology.Config) (*Collector, *mrt.Dump) {
	t.Helper()
	topo, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := propagate.NewEngine(topo, 0)
	var buf bytes.Buffer
	if err := New("rrc-synth", e, nil, 0).WriteRIB(&buf, time.Date(2013, 5, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	dump, err := mrt.ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return New("rrc-churn", e, nil, 4), dump
}

// sameBaseline reports whether two streams hold the same diff baseline.
func sameBaseline(a, b *UpdateStream) bool {
	return maps.EqualFunc(a.prefixes, b.prefixes, slices.Equal) &&
		maps.EqualFunc(a.routes, b.routes, slices.Equal)
}

// TestUpdateStreamSeedMatchesSweep pins the seeded baseline to the
// swept one: on every scenario's test-scale world, and on the paper
// world outside -short, the stream seeded from the archived dump holds
// exactly the prefixes and per-feeder fingerprints NewUpdateStream
// sweeps from the engine.
func TestUpdateStreamSeedMatchesSweep(t *testing.T) {
	type world struct {
		name string
		cfg  topology.Config
	}
	var worlds []world
	for _, name := range topology.ScenarioNames() {
		cfg := topology.TestConfig()
		cfg.Scenario = name
		worlds = append(worlds, world{name, cfg})
	}
	worlds = append(worlds, world{"paper", topology.DefaultConfig()})
	for _, wd := range worlds {
		t.Run(wd.name, func(t *testing.T) {
			if wd.name == "paper" && testing.Short() {
				t.Skip("paper-scale world in -short mode")
			}
			col, dump := seedWorld(t, wd.cfg)
			seeded, err := SeedUpdateStream(col, dump)
			if err != nil {
				t.Fatal(err)
			}
			swept := NewUpdateStream(col)
			if len(swept.routes) == 0 {
				t.Fatal("empty baseline; test is vacuous")
			}
			if !sameBaseline(seeded, swept) {
				t.Fatalf("seeded baseline (%d destinations) differs from the swept one (%d)", len(seeded.routes), len(swept.routes))
			}
		})
	}
}

// mutateDump returns a copy of d with one change, leaving d as it was.
// op picks the change; rec, ent and val pick its record, entry and
// value. Every result is a dump mrt.ReadDump could decode.
func mutateDump(d *mrt.Dump, op uint8, rec uint32, ent uint8, val uint32) *mrt.Dump {
	idx := *d.Index
	idx.Peers = slices.Clone(idx.Peers)
	out := &mrt.Dump{Index: &idx, RIBs: slices.Clone(d.RIBs)}
	n := len(out.RIBs)
	ri := int(rec % uint32(n))
	r := *out.RIBs[ri]
	r.Entries = slices.Clone(r.Entries)
	out.RIBs[ri] = &r
	e := &r.Entries[int(ent)%len(r.Entries)]
	attrs := *e.Attrs
	attrs.ASPath = slices.Clone(attrs.ASPath)
	e.Attrs = &attrs
	seg := &attrs.ASPath[0]
	switch op % 16 {
	case 1:
		e.PeerIndex = uint16(val)
	case 2:
		seg.ASNs = seg.ASNs[:int(val)%(len(seg.ASNs)+1)]
	case 3:
		seg.Set = true
	case 4:
		attrs.ASPath = append(attrs.ASPath, bgp.PathSegment{ASNs: []bgp.ASN{bgp.ASN(val)}})
	case 5:
		e.Attrs = nil
	case 6:
		r.Prefix = d.RIBs[int(val%uint32(n))].Prefix
	case 7:
		out.RIBs = slices.Delete(out.RIBs, ri, ri+1)
	case 8:
		vi := int(val % uint32(n))
		out.RIBs[ri], out.RIBs[vi] = out.RIBs[vi], out.RIBs[ri]
	case 9:
		out.RIBs = slices.Insert(out.RIBs, ri, &r)
	case 10:
		r.Entries = r.Entries[:0]
	case 11:
		idx.Peers[int(ent)%len(idx.Peers)].ASN = bgp.ASN(val)
	case 12:
		idx.Peers = idx.Peers[:len(idx.Peers)-1]
	case 13:
		out.Index = nil
	case 14:
		attrs.Communities = append(slices.Clone(attrs.Communities), bgp.Community(val))
	case 15:
		r.Entries = append(r.Entries, *e)
	}
	return out
}

// TestUpdateStreamSeedRefuses checks that the seed turns a dump it
// cannot map into an error: a foreign peer table (a renumbered feeder,
// a missing one, none at all), an out-of-range or repeated peer index,
// an empty, AS_SET or split AS path, an entry-less record, and records
// out of destination order or of no destination.
func TestUpdateStreamSeedRefuses(t *testing.T) {
	col, dump := seedWorld(t, topology.TestConfig())
	if _, err := SeedUpdateStream(col, mutateDump(dump, 0, 0, 0, 0)); err != nil {
		t.Fatalf("unmutated copy: %v", err)
	}
	for _, c := range []struct {
		name string
		op   uint8
		val  uint32
		want string
	}{
		{"foreign peer ASN", 11, 64512, "dump peer 0"},
		{"missing peer", 12, 0, "peer table"},
		{"no peer table", 13, 0, "peer table"},
		{"peer index out of range", 1, 65535, "out of range"},
		{"repeated peer index", 15, 0, "repeated"},
		{"empty AS path", 2, 0, "AS path"},
		{"AS_SET", 3, 0, "AS path"},
		{"split AS path", 4, 7, "AS path"},
		{"no attributes", 5, 0, "AS path"},
		{"no entries", 10, 0, "no entries"},
		{"record deleted", 7, 0, "dump record"},
		{"records swapped", 8, 1 << 20, "dump record"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := SeedUpdateStream(col, mutateDump(dump, c.op, 0, 0, c.val))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got error %v, want one naming %q", err, c.want)
			}
		})
	}
}

// FuzzUpdateStreamSeed feeds the seed one mutation of a test-scale dump
// (see mutateDump): it must return an error or a baseline, never panic,
// and an unmutated copy must seed the same baseline as the original.
func FuzzUpdateStreamSeed(f *testing.F) {
	col, dump := seedWorld(f, topology.TestConfig())
	base, err := SeedUpdateStream(col, dump)
	if err != nil {
		f.Fatal(err)
	}
	for op := range uint8(16) {
		f.Add(op, uint32(op)*37, op, uint32(op)*1000003)
	}
	f.Fuzz(func(t *testing.T, op uint8, rec uint32, ent uint8, val uint32) {
		s, err := SeedUpdateStream(col, mutateDump(dump, op, rec, ent, val))
		if err != nil {
			return
		}
		if op%16 == 0 && !sameBaseline(s, base) {
			t.Fatal("an unmutated copy seeded another baseline")
		}
		for dest, fps := range s.routes {
			if len(fps) != len(col.feeders) || len(s.prefixes[dest]) == 0 {
				t.Fatalf("%s: %d fingerprints, %d prefixes", dest, len(fps), len(s.prefixes[dest]))
			}
		}
	})
}
