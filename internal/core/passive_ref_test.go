package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/mrt"
	"mlpeering/internal/paths"
	"mlpeering/internal/relation"
)

// runPassiveReference is RunPassive as it stood before attribution was
// memoized per community shape: every surviving row runs identifyIXP,
// RelevantCommunities and anySchemeRelevant on its own, and the cycle
// check is the per-path set. RunPassive is pinned against it.
func runPassiveReference(dumps []*mrt.Dump, updates []*mrt.BGP4MPMessage, dict *Dictionary) *PassiveResult {
	res := &PassiveResult{
		Obs:           NewObservations(),
		Links:         make(map[bgp.LinkKey]bool),
		PrefixOrigins: make(map[bgp.Prefix]bgp.ASN),
	}
	store := paths.NewStore()
	recs := paths.NewRecords(store, 0)
	stableID := make(map[paths.ID]bool)
	for _, d := range dumps {
		if d == nil || d.Index == nil {
			continue
		}
		for _, rib := range d.RIBs {
			for _, e := range rib.Entries {
				if e.Attrs == nil {
					continue
				}
				id := store.InternASPath(e.Attrs.ASPath)
				recs.Add(id, e.Attrs.Communities, rib.Prefix, true)
				stableID[id] = true
			}
		}
	}
	for _, u := range updates {
		upd, ok := u.Message.(*bgp.Update)
		if !ok {
			continue
		}
		res.Withdrawals += len(upd.Withdrawn)
		if upd.Attrs == nil || len(upd.NLRI) == 0 {
			if len(upd.Withdrawn) > 0 {
				res.WithdrawnOnlyUpdates++
			}
			continue
		}
		id := store.InternASPath(upd.Attrs.ASPath)
		for _, p := range upd.NLRI {
			recs.Add(id, upd.Attrs.Communities, p, false)
		}
	}

	cycleRef := func(path []bgp.ASN) bool {
		seen := make(map[bgp.ASN]bool, len(path))
		for _, a := range path {
			if seen[a] {
				return true
			}
			seen[a] = true
		}
		return false
	}
	keptRow := make([]bool, recs.Len())
	seenPath := make(map[paths.ID]bool)
	var kept []paths.ID
	for i := 0; i < recs.Len(); i++ {
		id := recs.PathID[i]
		p := store.Path(id)
		switch {
		case hasBogon(p):
			res.Dropped.Bogon++
			continue
		case cycleRef(p):
			res.Dropped.Cycle++
			continue
		case !recs.Stable[i] && !stableID[id]:
			res.Dropped.Transient++
			continue
		}
		keptRow[i] = true
		if len(p) == 0 {
			continue
		}
		if !seenPath[id] {
			seenPath[id] = true
			kept = append(kept, id)
			for j := 0; j+1 < len(p); j++ {
				res.Links[bgp.MakeLinkKey(p[j], p[j+1])] = true
			}
		}
		res.PrefixOrigins[recs.Prefix[i]] = p[len(p)-1]
	}
	res.Paths = paths.NewView(store, kept)
	res.Rels = relation.Infer(res.Paths)

	for i := 0; i < recs.Len(); i++ {
		if !keptRow[i] || len(recs.Comms[i]) == 0 {
			continue
		}
		entry, ok := dict.identifyIXP(recs.Comms[i])
		if !ok {
			if anySchemeRelevant(dict, recs.Comms[i]) {
				res.IXPUnresolved++
			}
			continue
		}
		setter, ok := pinpointSetter(recs.Path(i), entry, res.Rels)
		if !ok {
			res.SetterUnresolved++
			continue
		}
		res.Obs.Add(entry.Name, setter, recs.Prefix[i], entry.Scheme.RelevantCommunities(recs.Comms[i]), ObsPassive)
	}
	return res
}

// passiveDiffFromReference runs RunPassive and the per-row reference
// over the same archives and describes the first difference in what
// mining produced ("" when there is none): every observation (IXP,
// setter, prefix, community set) and its source, the unresolved
// counters, the hygiene tallies and the public view.
func passiveDiffFromReference(dumps []*mrt.Dump, updates []*mrt.BGP4MPMessage, dict *Dictionary) string {
	got, err := RunPassive(dumps, updates, dict)
	if err != nil {
		return "RunPassive: " + err.Error()
	}
	want := runPassiveReference(dumps, updates, dict)
	switch {
	case len(want.Obs.ixps) == 0:
		return "the reference mined no observation: nothing is compared"
	case got.IXPUnresolved != want.IXPUnresolved:
		return fmt.Sprintf("IXPUnresolved %d, reference %d", got.IXPUnresolved, want.IXPUnresolved)
	case got.SetterUnresolved != want.SetterUnresolved:
		return fmt.Sprintf("SetterUnresolved %d, reference %d", got.SetterUnresolved, want.SetterUnresolved)
	case got.Dropped != want.Dropped:
		return fmt.Sprintf("Dropped %+v, reference %+v", got.Dropped, want.Dropped)
	case !reflect.DeepEqual(got.Links, want.Links) || !reflect.DeepEqual(got.PrefixOrigins, want.PrefixOrigins):
		return "public view (links, prefix origins) differs"
	}
	for _, name := range want.Obs.IXPs() {
		for _, setter := range want.Obs.Setters(name) {
			if g, w := got.Obs.ixps[name][setter], want.Obs.ixps[name][setter]; !reflect.DeepEqual(g, w) {
				return fmt.Sprintf("observations of %s setter AS%d differ: %+v, reference %+v", name, setter, g, w)
			}
		}
	}
	if !reflect.DeepEqual(got.Obs.ixps, want.Obs.ixps) {
		return "RunPassive observed setters the reference did not"
	}
	return ""
}

// ribRow is one hand-built RIB entry.
type ribRow struct {
	path   []bgp.ASN
	comms  string
	prefix string
}

// handDump puts every row in its own record, from the one peer its
// peer table lists.
func handDump(t *testing.T, rows []ribRow) []*mrt.Dump {
	t.Helper()
	d := &mrt.Dump{Index: &mrt.PeerIndexTable{Peers: make([]mrt.Peer, 1)}}
	for i, r := range rows {
		attrs := &bgp.PathAttrs{ASPath: bgp.NewASPath(r.path...)}
		if r.comms != "" {
			attrs.Communities = comms(t, r.comms)
		}
		d.RIBs = append(d.RIBs, &mrt.RIBRecord{
			Sequence: uint32(i),
			Prefix:   bgp.MustPrefix(r.prefix),
			Entries:  []mrt.RIBEntry{{Attrs: attrs}},
		})
	}
	return []*mrt.Dump{d}
}

// TestRunPassiveAttributionEdgeCases hand-builds the rows the per-shape
// memo could blur and checks both the absolute outcome and equality
// with the per-row reference. Members (testDict): DE-CIX 100, 200, 300,
// 8359; MSK-IX 100, 400, 500.
func TestRunPassiveAttributionEdgeCases(t *testing.T) {
	dict := testDict(t)
	viaDECIX := []bgp.ASN{9, 100, 300} // two DE-CIX members: setter 300
	rows := []ribRow{
		// Two strong candidates: discarded, and counted on every row
		// although the shape is attributed once.
		{viaDECIX, "6695:6695 8631:8631", "10.0.0.0/24"},
		{viaDECIX, "6695:6695 8631:8631", "10.0.1.0/24"},
		// A weak candidate whose referenced peer is nobody's member.
		{viaDECIX, "0:999", "10.0.2.0/24"},
		// One set in two announce orders: two shapes, one answer.
		{viaDECIX, "6695:6695 0:200", "10.0.3.0/24"},
		{viaDECIX, "0:200 6695:6695", "10.0.4.0/24"},
		// No communities at all.
		{viaDECIX, "", "10.0.5.0/24"},
		// Relevant to two schemes, attributable to neither (100 is a
		// member of both): once per row, three rows.
		{viaDECIX, "0:100", "10.0.6.0/24"},
		{viaDECIX, "0:100", "10.0.7.0/24"},
		{[]bgp.ASN{9, 400, 500}, "0:100", "10.0.8.0/24"},
		// Attributed, but a single member on the path: no setter.
		{[]bgp.ASN{9, 8, 300}, "6695:6695 0:200", "10.0.9.0/24"},
		// Noise no scheme interprets.
		{viaDECIX, "3356:70 1299:20000", "10.0.10.0/24"},
		// Hygiene: a cycle and a bogon never reach attribution.
		{[]bgp.ASN{9, 100, 300, 100}, "6695:6695", "10.0.11.0/24"},
		{[]bgp.ASN{9, 23456, 300}, "6695:6695", "10.0.12.0/24"},
	}
	dumps := handDump(t, rows)
	if diff := passiveDiffFromReference(dumps, nil, dict); diff != "" {
		t.Fatalf("RunPassive differs from the per-row reference: %s", diff)
	}
	res, err := RunPassive(dumps, nil, dict)
	if err != nil {
		t.Fatal(err)
	}
	if res.IXPUnresolved != 6 || res.SetterUnresolved != 1 {
		t.Errorf("IXPUnresolved %d, SetterUnresolved %d, want 6 and 1", res.IXPUnresolved, res.SetterUnresolved)
	}
	if want := (DropStats{Bogon: 1, Cycle: 1}); res.Dropped != want {
		t.Errorf("Dropped %+v, want %+v", res.Dropped, want)
	}
	if got := res.Obs.IXPs(); !reflect.DeepEqual(got, []string{"DE-CIX"}) {
		t.Fatalf("observed IXPs %v, want DE-CIX alone", got)
	}
	if got := res.Obs.Setters("DE-CIX"); !reflect.DeepEqual(got, []bgp.ASN{300}) {
		t.Fatalf("DE-CIX setters %v, want AS300 alone", got)
	}
	pm := res.Obs.ixps["DE-CIX"][300].prefixes
	a, b := pm[bgp.MustPrefix("10.0.3.0/24")], pm[bgp.MustPrefix("10.0.4.0/24")]
	if len(pm) != 2 || a.Dedup().String() != b.Dedup().String() || reflect.DeepEqual(a, b) {
		t.Errorf("the two announce orders must be one set kept in its own order: %v and %v (of %d prefixes)", a, b, len(pm))
	}
}

// TestAttributorOncePerShape: the memo is keyed by the set as
// announced, computes each shape once and hands every later row the
// same shared answer.
func TestAttributorOncePerShape(t *testing.T) {
	attr := newAttributor(testDict(t))
	ab, ba := attr.of(comms(t, "6695:6695 0:200")), attr.of(comms(t, "0:200 6695:6695"))
	if len(attr.memo) != 2 || ab.entry == nil || ab.entry != ba.entry || ab.relKey != ba.relKey {
		t.Fatalf("two announce orders: %d shapes, entries %v / %v, keys %q / %q",
			len(attr.memo), ab.entry, ba.entry, ab.relKey, ba.relKey)
	}
	again := attr.of(comms(t, "6695:6695 0:200"))
	if len(attr.memo) != 2 || &again.relComms[0] != &ab.relComms[0] {
		t.Fatal("a repeated shape was attributed again")
	}
	for set, unresolved := range map[string]bool{
		"6695:6695 8631:8631": true,  // conflicting strong evidence
		"0:100":               true,  // ambiguous weak evidence
		"0:999":               true,  // relevant, referenced peer a non-member
		"3356:70":             false, // no scheme interprets it
	} {
		if at := attr.of(comms(t, set)); at.entry != nil || at.unresolved != unresolved {
			t.Errorf("%q: entry %v, unresolved %v, want none and %v", set, at.entry, at.unresolved, unresolved)
		}
	}
	if n := testing.AllocsPerRun(100, func() { attr.of(ab.relComms) }); n != 0 {
		t.Errorf("a memo hit allocates %.0f times", n)
	}
}

// TestHasCycleLongPath covers the set fallback long paths take.
func TestHasCycleLongPath(t *testing.T) {
	long := make([]bgp.ASN, 200)
	for i := range long {
		long[i] = bgp.ASN(i + 1)
	}
	if hasCycle(long) {
		t.Fatal("cycle in a path of distinct ASes")
	}
	long[199] = long[3]
	if !hasCycle(long) {
		t.Fatal("repeat at the end of a long path missed")
	}
}

// TestMinersRefuseForeignPeerIndex: an entry naming a peer its dump's
// table does not hold is an error from both miners, not a panic. The
// windowed miner's base load meets it in a later block too, at
// GOMAXPROCS 1 and 2, and returns with no goroutine left running.
func TestMinersRefuseForeignPeerIndex(t *testing.T) {
	dumps := handDump(t, []ribRow{{[]bgp.ASN{9, 100}, "", "10.0.0.0/24"}})
	dumps[0].RIBs[0].Entries[0].PeerIndex = 1
	dict := testDict(t)
	const want = "names peer 1 outside the 1-peer table"
	if _, err := RunPassive(dumps, nil, dict); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("RunPassive: err %v, want one containing %q", err, want)
	}
	opts := WindowOptions{Start: time.Unix(1368000000, 0), Window: time.Minute, Count: 1}
	if _, err := RunPassiveWindows(dumps, nil, dict, opts); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("RunPassiveWindows: err %v, want one containing %q", err, want)
	}

	// Record 3,000 of 4,000 sits in the third block, so stage A meets it
	// beside stage B's fill of the second.
	rows := make([]ribRow, 4000)
	for i := range rows {
		rows[i] = ribRow{[]bgp.ASN{9, 100}, "", fmt.Sprintf("10.%d.%d.0/24", i/256, i%256)}
	}
	late := handDump(t, rows)
	late[0].RIBs[3000].Entries[0].PeerIndex = 1
	const wantLate = "core: RIB entry for 10.11.184.0/24 names peer 1 outside the 1-peer table"
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, width := range []int{1, 2} {
		runtime.GOMAXPROCS(width)
		before := runtime.NumGoroutine()
		if _, err := RunPassiveWindows(late, nil, dict, opts); err == nil || err.Error() != wantLate {
			t.Errorf("GOMAXPROCS %d: err %v, want %q", width, err, wantLate)
		}
		// A joined worker may still be on its way out after its Done.
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n != before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n != before {
			t.Errorf("GOMAXPROCS %d: %d goroutines after the failed load, %d before", width, n, before)
		}
	}
}
