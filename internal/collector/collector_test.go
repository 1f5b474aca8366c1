package collector

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/mrt"
	"mlpeering/internal/propagate"
	"mlpeering/internal/topology"
)

func testEngine(t *testing.T) *propagate.Engine {
	t.Helper()
	topo, err := topology.Generate(topology.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return propagate.NewEngine(topo, 0)
}

func TestWriteAndReadRIB(t *testing.T) {
	e := testEngine(t)
	c := New("rrc-test", e, nil, 2)
	ts := time.Date(2013, 5, 1, 0, 0, 0, 0, time.UTC)

	var buf bytes.Buffer
	if err := c.WriteRIB(&buf, ts); err != nil {
		t.Fatal(err)
	}
	dump, err := mrt.ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dump.Index == nil || len(dump.Index.Peers) != len(c.feeders) {
		t.Fatalf("peer index: %+v", dump.Index)
	}
	if len(dump.RIBs) == 0 {
		t.Fatal("empty RIB dump")
	}

	topo := e.Topology()
	owners := topo.PrefixOwners()
	commSeen := false
	for _, rib := range dump.RIBs {
		owner, ok := owners[rib.Prefix]
		if !ok {
			t.Fatalf("prefix %s has no owner", rib.Prefix)
		}
		for _, entry := range rib.Entries {
			path := entry.Attrs.ASPath.Flatten()
			if len(path) == 0 {
				t.Fatal("empty AS path")
			}
			// Path starts at a feeder and ends at the origin.
			feeder := dump.Index.Peers[entry.PeerIndex].ASN
			if path[0] != feeder {
				t.Fatalf("path %v does not start at feeder %s", path, feeder)
			}
			if path[len(path)-1] != owner {
				t.Fatalf("path %v does not end at origin %s", path, owner)
			}
			if len(entry.Attrs.Communities) > 0 {
				commSeen = true
			}
		}
	}
	if !commSeen {
		t.Fatal("no communities in the archive: passive inference would be impossible")
	}
}

func TestCustomerOnlyFeedersExportLess(t *testing.T) {
	e := testEngine(t)
	topo := e.Topology()
	ts := time.Date(2013, 5, 1, 0, 0, 0, 0, time.UTC)

	// Pick one feeder AS and compare its export volume under both kinds.
	feeder := topo.Feeders[0]
	full := []topology.Feeder{{ASN: feeder.ASN, Kind: topology.FeedFull}}
	cust := []topology.Feeder{{ASN: feeder.ASN, Kind: topology.FeedCustomerOnly}}

	count := func(fs []topology.Feeder) int {
		var buf bytes.Buffer
		if err := New("x", e, fs, 2).WriteRIB(&buf, ts); err != nil {
			t.Fatal(err)
		}
		dump, err := mrt.ReadDump(&buf)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range dump.RIBs {
			n += len(r.Entries)
		}
		return n
	}
	nFull, nCust := count(full), count(cust)
	if nCust >= nFull {
		t.Fatalf("customer-only feed (%d entries) not smaller than full feed (%d)", nCust, nFull)
	}
	if nCust == 0 {
		t.Fatal("customer-only feed exported nothing")
	}
}

func TestWriteUpdates(t *testing.T) {
	e := testEngine(t)
	c := New("rrc-test", e, nil, 2)
	ts := time.Date(2013, 5, 2, 0, 0, 0, 0, time.UTC)

	var buf bytes.Buffer
	opts := UpdateOptions{Churn: 60, TransientPaths: 5, PoisonedPaths: 4, BogonPaths: 3, Seed: 7}
	if err := c.WriteUpdates(&buf, ts, opts); err != nil {
		t.Fatal(err)
	}
	ups, err := mrt.ReadUpdates(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) == 0 {
		t.Fatal("no updates written")
	}
	cycles, bogons, withdrawnOnly, paired := 0, 0, 0, 0
	withdrawnAt := make(map[bgp.Prefix]bool)
	for _, u := range ups {
		upd, ok := u.Message.(*bgp.Update)
		if !ok {
			t.Fatalf("message type %T", u.Message)
		}
		if upd.Attrs == nil {
			if len(upd.Withdrawn) == 0 {
				t.Fatal("update with neither attributes nor withdrawals")
			}
			withdrawnOnly++
			for _, p := range upd.Withdrawn {
				withdrawnAt[p] = true
			}
			continue
		}
		for _, p := range upd.NLRI {
			if withdrawnAt[p] {
				paired++
			}
		}
		if upd.Attrs.ASPath.HasCycle() {
			cycles++
		}
		for _, a := range upd.Attrs.ASPath.Flatten() {
			if a.IsReserved() {
				bogons++
				break
			}
		}
	}
	if cycles == 0 {
		t.Fatal("poisoned paths missing")
	}
	if bogons == 0 {
		t.Fatal("bogon paths missing")
	}
	// Churn must be paired withdraw/re-announce flaps, not announce-only.
	if withdrawnOnly == 0 {
		t.Fatal("no withdrawn-only updates: churn is announce-only again")
	}
	if paired == 0 {
		t.Fatal("no withdraw followed by a re-announcement of the same prefix")
	}
}

// TestUpdateStreamDiffsEpoch exercises the epoch diff stream directly:
// a prefix move must withdraw from the old origin's announcements and
// announce from the new one.
func TestUpdateStreamDiffsEpoch(t *testing.T) {
	e := testEngine(t)
	topo := e.Topology()
	c := New("rrc-test", e, nil, 2)
	stream := NewUpdateStream(c)

	// Find an AS with a prefix and a distinct recipient.
	var from, to bgp.ASN
	var p bgp.Prefix
	for _, asn := range topo.Order {
		if len(topo.ASes[asn].Prefixes) > 0 {
			from = asn
			p = topo.ASes[asn].Prefixes[0]
			break
		}
	}
	for _, asn := range topo.Order {
		if asn != from {
			to = asn
			break
		}
	}
	delta := &propagate.Delta{Prefixes: []propagate.PrefixOp{{Prefix: p, From: from, To: to}}}
	dirty, err := e.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ts := time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)
	ann, wd, err := stream.WriteEpoch(&buf, ts, 10*time.Minute, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if ann == 0 || wd == 0 {
		t.Fatalf("prefix move produced ann=%d wd=%d", ann, wd)
	}
	ups, err := mrt.ReadUpdates(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sawWithdraw, sawAnnounce := false, false
	for _, u := range ups {
		upd := u.Message.(*bgp.Update)
		for _, q := range upd.Withdrawn {
			if q == p {
				sawWithdraw = true
			}
		}
		for _, q := range upd.NLRI {
			if q == p {
				sawAnnounce = true
				path := upd.Attrs.ASPath.Flatten()
				if path[len(path)-1] != to {
					t.Fatalf("re-announced path %v does not end at new origin %s", path, to)
				}
			}
		}
	}
	if !sawWithdraw || !sawAnnounce {
		t.Fatalf("moved prefix: withdraw=%v announce=%v", sawWithdraw, sawAnnounce)
	}

	// A second epoch with no mutation emits nothing.
	var buf2 bytes.Buffer
	ann2, wd2, err := stream.WriteEpoch(&buf2, ts.Add(10*time.Minute), 10*time.Minute, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if ann2 != 0 || wd2 != 0 {
		t.Fatalf("idempotent epoch re-diff emitted ann=%d wd=%d", ann2, wd2)
	}
}

func TestBuildRSRIBs(t *testing.T) {
	e := testEngine(t)
	ribs := propagate.BuildRSRIBs(e, 2)
	topo := e.Topology()

	if len(ribs) != len(topo.IXPs) {
		t.Fatalf("RS RIBs = %d, want %d", len(ribs), len(topo.IXPs))
	}
	multi := 0
	total := 0
	for name, rib := range ribs {
		info := topo.IXPByName(name)
		if info == nil {
			t.Fatalf("unknown IXP %s", name)
		}
		if len(rib.Entries) == 0 {
			t.Fatalf("%s: empty RS RIB", name)
		}
		for _, m := range rib.Members() {
			if !info.IsRSMember(m) {
				t.Fatalf("%s: non-member %s in RS RIB", name, m)
			}
		}
		for p, es := range rib.Entries {
			total++
			if len(es) > 1 {
				multi++
			}
			seen := map[bgp.ASN]bool{}
			for _, e := range es {
				if seen[e.Member] {
					t.Fatalf("%s: duplicate advertiser %s for %s", name, e.Member, p)
				}
				seen[e.Member] = true
				if len(e.Path) == 0 || e.Path[0] != e.Member {
					t.Fatalf("%s: malformed entry path %v", name, e.Path)
				}
			}
		}
	}
	// Multi-member prefixes must exist (Fig. 5's 48.4%).
	if multi == 0 {
		t.Fatalf("no multi-advertiser prefixes across %d prefixes", total)
	}
}

// TestWriteUpdatesGolden pins the update trace's bytes at test scale:
// each drawn route comes from a one-tree sweep over the feeders, and it
// must be the route a full tree gives.
func TestWriteUpdatesGolden(t *testing.T) {
	c := New("rrc-test", testEngine(t), nil, 2)
	ts := time.Date(2013, 5, 1, 1, 0, 0, 0, time.UTC)
	opts := UpdateOptions{Churn: 200, TransientPaths: 12, PoisonedPaths: 8, BogonPaths: 6, Seed: 20130503}
	var buf bytes.Buffer
	if err := c.WriteUpdates(&buf, ts, opts); err != nil {
		t.Fatal(err)
	}
	const want = "e9b370c434f1d413bb6818fbc1ba9ab5e73ea1753ad795d5c6bcc806b0207feb"
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("WriteUpdates (%d bytes) sha256 %s, want %s", buf.Len(), got, want)
	}
}
