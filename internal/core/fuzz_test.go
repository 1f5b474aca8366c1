package core

import (
	"context"
	"errors"
	"maps"
	"slices"
	"testing"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
	"mlpeering/internal/mrt"
)

// FuzzWindowMiner is the differential fuzz of the windowed miner: a
// small base RIB and a byte-driven event sequence over testDict's
// exchanges are replayed once in incremental mode and once through the
// remine oracle, and every window close must agree on the materialized
// mesh's fingerprint and on the maintained counters. A looped leg then
// replays the trace for two cycles in each mode, and every cycle's
// windows must equal the fresh run's. After every close of every leg the
// miner's lookup map must hold exactly the live shapes, and its
// re-pinpoint list exactly the live rels-dependent ones; after every
// incremental close no (IXP, setter) record may be left dirty, every
// record's mesh coverage and filter must equal its own tally's vote, the
// maintained mesh must equal InferLinks over the same observation store,
// which separates a MeshState fault from the observation reduction both
// modes share, and the link index Snapshot patched must equal one built
// from scratch over a deep copy of the Result. Seeds live under
// testdata/fuzz.
func FuzzWindowMiner(f *testing.F) {
	fx := newMinerFuzzFixture(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		dumps, updates, count := fx.decode(data)
		inc := fx.windows(t, dumps, updates, count, WindowsIncremental, 1)
		for _, leg := range []struct {
			mode   WindowsMode
			cycles int
		}{{WindowsRemine, 1}, {WindowsIncremental, 2}, {WindowsRemine, 2}} {
			for i, row := range fx.windows(t, dumps, updates, count, leg.mode, leg.cycles) {
				if want := inc[i%count]; row != want {
					t.Fatalf("%v, %d cycles: window %d of %d diverges:\nfresh incremental %+v\ngot               %+v",
						leg.mode, leg.cycles, i, count, want, row)
				}
			}
		}
	})
}

// minerFuzzFixture is the vocabulary the fuzz input picks from: the
// members of DE-CIX and MSK-IX on clean, rels-dependent (three or more
// members of one IXP), bogon and cycle paths, community sets that
// include, exclude or straddle the two route servers, and six prefixes.
// A route's collector peer is its path's first hop: 100 and 400 for
// most paths, 200 and 300 for the last two, so one prefix can sit in
// the slots of four peers. The exchanges are
// testDict's, except that 200 and 300 are members of MSK-IX as well:
// their link can then be attributed to both and move between them.
type minerFuzzFixture struct {
	dict     *Dictionary
	paths    [][]bgp.ASN
	comms    []bgp.Communities
	prefixes []bgp.Prefix
	t0       time.Time
	window   time.Duration
}

func newMinerFuzzFixture(tb testing.TB) *minerFuzzFixture {
	dict, err := BuildDictionary([]WebsiteData{
		{Name: "DE-CIX", Scheme: ixp.StandardScheme(6695), PublishesMemberList: true,
			PublishedRSMembers: []bgp.ASN{100, 200, 300, 8359}},
		{Name: "MSK-IX", Scheme: ixp.StandardScheme(8631), PublishesMemberList: true,
			PublishedRSMembers: []bgp.ASN{100, 200, 300, 400, 500}},
		{Name: "ECIX", Scheme: ixp.PrivateRangeScheme(9033), PublishesMemberList: true,
			PublishedRSMembers: []bgp.ASN{600, 700}},
	}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	fx := &minerFuzzFixture{
		dict: dict,
		paths: [][]bgp.ASN{
			{100, 200},
			{100, 300},
			{100, 200, 8359}, // rels-dependent at DE-CIX
			{100, 8359, 300}, // rels-dependent at DE-CIX
			{100, bgp.ASTrans, 300},
			{100, 200, 100},
			{400, 500},
			{400, 100, 500}, // rels-dependent at MSK-IX
			{400, 100, 200},
			{400},
			{200, 300},
			{300, 100, 200}, // rels-dependent at DE-CIX and MSK-IX
		},
		t0:     time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC),
		window: 10 * time.Minute,
	}
	for _, s := range []string{"", "6695:6695", "6695:6695 0:300", "6695:6695 0:200", "0:6695 6695:300",
		"8631:8631", "8631:8631 0:500", "6695:6695 8631:8631"} {
		fx.comms = append(fx.comms, comms(tb, s))
	}
	for _, s := range []string{"10.0.0.0/24", "10.1.0.0/24", "10.2.0.0/24", "10.3.0.0/24", "10.4.0.0/24", "10.5.0.0/24"} {
		fx.prefixes = append(fx.prefixes, bgp.MustPrefix(s))
	}
	return fx
}

// Fuzz input limits: events past fuzzMaxEvents and closes past
// fuzzMaxCloses are ignored, so one input stays a few milliseconds of
// replay.
const (
	fuzzMaxEvents = 96
	fuzzMaxCloses = 12
)

// Event kinds, one input byte each (mod fuzzEventKinds), followed by the
// event's argument bytes.
const (
	fuzzAnnounce     = iota // path, prefix, comms, two-prefix flag
	fuzzWithdraw            // live slot
	fuzzReannounce          // live slot, comms step: same path, other comms
	fuzzDuplicate           // repeat the last announce exactly
	fuzzWithdrawDead        // peer, prefix: a slot that holds no route
	fuzzClose               // close the window
	fuzzEventKinds
)

// decode turns fuzz bytes into a base RIB dump, an update trace and the
// number of windows that trace closes. The first byte sizes the base RIB
// (mod 8 entries of path, prefix and comms bytes); what follows is the
// event sequence. Missing bytes read as zero.
func (fx *minerFuzzFixture) decode(data []byte) ([]*mrt.Dump, []*mrt.BGP4MPMessage, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	type route struct{ path, comms int }
	live := make(map[liveKey]route)
	slot := func(path, prefix int) liveKey { return liveKey{fx.paths[path][0], fx.prefixes[prefix]} }

	dump := &mrt.Dump{Index: &mrt.PeerIndexTable{Peers: []mrt.Peer{{ASN: 100}, {ASN: 400}, {ASN: 200}, {ASN: 300}}}}
	for n := next() % 8; n > 0; n-- {
		path, prefix, cs := next()%len(fx.paths), next()%len(fx.prefixes), next()%len(fx.comms)
		peer := slices.IndexFunc(dump.Index.Peers, func(p mrt.Peer) bool { return p.ASN == fx.paths[path][0] })
		dump.RIBs = append(dump.RIBs, &mrt.RIBRecord{Prefix: fx.prefixes[prefix], Entries: []mrt.RIBEntry{{
			PeerIndex: uint16(peer),
			Attrs:     &bgp.PathAttrs{ASPath: bgp.NewASPath(fx.paths[path]...), Communities: fx.comms[cs]},
		}}})
		live[slot(path, prefix)] = route{path, cs}
	}

	var updates []*mrt.BGP4MPMessage
	closes, at := 0, fx.t0
	var last *mrt.BGP4MPMessage
	announce := func(path, cs int, prefixes ...int) {
		nlri := make([]bgp.Prefix, len(prefixes))
		for i, p := range prefixes {
			nlri[i] = fx.prefixes[p]
			live[slot(path, p)] = route{path, cs}
		}
		last = upd(at, fx.paths[path][0], fx.paths[path], fx.comms[cs], nlri, nil)
		updates = append(updates, last)
	}
	liveSlot := func() (liveKey, route, bool) {
		if len(live) == 0 {
			return liveKey{}, route{}, false
		}
		keys := slices.SortedFunc(maps.Keys(live), compareLiveKeys)
		k := keys[next()%len(keys)]
		return k, live[k], true
	}
	for events := 0; len(data) > 0 && events < fuzzMaxEvents && closes < fuzzMaxCloses; events++ {
		at = at.Add(time.Second)
		switch next() % fuzzEventKinds {
		case fuzzAnnounce:
			path, prefix, cs := next()%len(fx.paths), next()%len(fx.prefixes), next()%len(fx.comms)
			if next()%2 == 0 {
				announce(path, cs, prefix)
			} else {
				announce(path, cs, prefix, (prefix+1)%len(fx.prefixes))
			}
		case fuzzWithdraw:
			if k, _, ok := liveSlot(); ok {
				delete(live, k)
				updates = append(updates, upd(at, k.peer, nil, nil, nil, []bgp.Prefix{k.prefix}))
			}
		case fuzzReannounce:
			if k, r, ok := liveSlot(); ok {
				cs := (r.comms + 1 + next()%(len(fx.comms)-1)) % len(fx.comms)
				announce(r.path, cs, slices.Index(fx.prefixes, k.prefix))
			}
		case fuzzDuplicate:
			if last != nil {
				dup := *last
				dup.Timestamp = at
				updates = append(updates, &dup)
			}
		case fuzzWithdrawDead:
			peer := []bgp.ASN{100, 400}[next()%2]
			p := bgp.MustPrefix("10.99.0.0/24") // never announced
			for i, start := 0, next(); i < len(fx.prefixes); i++ {
				q := fx.prefixes[(start+i)%len(fx.prefixes)]
				if _, ok := live[liveKey{peer, q}]; !ok {
					p = q
					break
				}
			}
			updates = append(updates, upd(at, peer, nil, nil, nil, []bgp.Prefix{p}))
		case fuzzClose:
			closes++
			at = fx.t0.Add(time.Duration(closes) * fx.window)
		}
	}
	return []*mrt.Dump{dump}, updates, closes + 1
}

// minerFuzzRow is what one window close must agree on across modes.
type minerFuzzRow struct {
	Fingerprint                      uint64
	MeshLinks, RelLinks, P2PRels     int
	LiveRoutes, Announced, Withdrawn int
	Dropped                          DropStats
	Stability                        float64
}

// windows replays the trace in mode for the given number of cycles (more
// than one loops the replay) and returns one row per window, checking
// the miner's shape lifetime after every close and, in incremental
// mode, the mesh against the batch rule and its index against a
// from-scratch build.
func (fx *minerFuzzFixture) windows(t *testing.T, dumps []*mrt.Dump, updates []*mrt.BGP4MPMessage, count int, mode WindowsMode, cycles int) []minerFuzzRow {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rows []minerFuzzRow
	opts := WindowOptions{Start: fx.t0, Window: fx.window, Count: count, Mode: mode, Ctx: ctx, Loop: cycles > 1, Stream: func(pw *PassiveWindow) {
		res := pw.Materialize()
		if mode == WindowsIncremental {
			appliedRecords(t, pw.miner)
			if diff := diffResults(res, InferLinks(fx.dict, pw.miner.obs)); diff != "" {
				t.Fatalf("%v: window %d: mesh diverges from InferLinks over the same store: %s", mode, len(rows), diff)
			}
			if res.linkIndex == nil {
				t.Fatalf("%v: window %d: Snapshot returned an unindexed Result", mode, len(rows))
			}
			if diff := diffLinkIndex(res.linkIndex, newLinkIndex(deepCopyResult(res))); diff != "" {
				t.Fatalf("%v: window %d: patched index differs from rebuilt: %s", mode, len(rows), diff)
			}
		}
		rows = append(rows, minerFuzzRow{
			Fingerprint: res.Fingerprint(),
			MeshLinks:   pw.MeshLinks, RelLinks: pw.RelLinks, P2PRels: pw.P2PRels,
			LiveRoutes: pw.LiveRoutes, Announced: pw.Announced, Withdrawn: pw.Withdrawn,
			Dropped: pw.Dropped, Stability: pw.Stability,
		})
		liveShapes(t, pw.miner)
		if len(rows) == cycles*count {
			cancel()
		}
	}}
	if _, err := RunPassiveWindows(dumps, updates, fx.dict, opts); err != nil && !(opts.Loop && errors.Is(err, context.Canceled)) {
		t.Fatal(err)
	}
	if len(rows) != cycles*count {
		t.Fatalf("%v: %d windows, want %d", mode, len(rows), cycles*count)
	}
	return rows
}

// appliedRecords fails unless a closed incremental miner left no record
// dirty, every record's mesh state is what its own tally says now —
// covered iff a prefix is live, with the tally's majority-vote filter —
// and each IXP's covered list holds exactly its covered records, each
// at the position it records.
func appliedRecords(t *testing.T, m *windowMiner) {
	t.Helper()
	if len(m.obs.dirty) != 0 {
		t.Fatalf("window %d: %d records still queued after the close", m.epoch-1, len(m.obs.dirty))
	}
	for _, x := range m.obs.ixps {
		n := 0
		for i, s := range x.covered {
			if s.x != x || !s.meshCovered || s.coveredAt != i {
				t.Fatalf("window %d: %s covered list slot %d holds %s %d (covered %v, at %d)",
					m.epoch-1, x.entry.Name, i, s.x.entry.Name, s.asn, s.meshCovered, s.coveredAt)
			}
		}
		for _, s := range x.records {
			if s.meshCovered {
				n++
			}
			f, covered := s.filter(x.entry.Scheme)
			if s.dirty || s.meshCovered != (s.active > 0) || s.meshCovered != covered || !s.meshFilter.Equal(f) {
				t.Fatalf("window %d: %s %d: dirty %v, mesh covered %v filter %v; tally active %d filter %v",
					m.epoch-1, x.entry.Name, s.asn, s.dirty, s.meshCovered, s.meshFilter, s.active, f)
			}
		}
		if n != len(x.covered) {
			t.Fatalf("window %d: %s has %d covered records, %d in its covered list", m.epoch-1, x.entry.Name, n, len(x.covered))
		}
	}
}

// liveShapes fails unless a closed miner's lookup map holds no shape
// that no live route carries, files every shape under its own (path,
// comms ID) key, and its re-pinpoint list holds exactly the
// rels-dependent shapes of that map.
func liveShapes(t *testing.T, m *windowMiner) {
	t.Helper()
	deps := 0
	for k, g := range m.groups {
		if g.refs == 0 {
			t.Fatalf("window %d: dead shape %v %v kept in the lookup map", m.epoch-1, m.store.Path(g.path), g.at.comms)
		}
		if k != (shapeKey{g.path, g.at.id}) || m.attr.of(g.at.comms).id != g.at.id {
			t.Fatalf("window %d: shape %v %v (comms ID %d) filed under %+v", m.epoch-1, m.store.Path(g.path), g.at.comms, g.at.id, k)
		}
		if g.relsDep {
			deps++
		}
	}
	if len(m.relsDeps) != deps {
		t.Fatalf("window %d: %d shapes listed for re-pinpointing, %d live rels-dependent shapes", m.epoch-1, len(m.relsDeps), deps)
	}
}
