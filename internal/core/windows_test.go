package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/mrt"
	"mlpeering/internal/paths"
	"mlpeering/internal/relation"
	"mlpeering/internal/topology"
)

func upd(ts time.Time, peer bgp.ASN, path []bgp.ASN, cs bgp.Communities, nlri, withdrawn []bgp.Prefix) *mrt.BGP4MPMessage {
	u := &bgp.Update{Withdrawn: withdrawn, NLRI: nlri}
	if len(nlri) > 0 {
		u.Attrs = &bgp.PathAttrs{
			Origin:      bgp.OriginIGP,
			ASPath:      bgp.NewASPath(path...),
			Communities: cs,
		}
	}
	return &mrt.BGP4MPMessage{Timestamp: ts, PeerASN: peer, Message: u, AS4: true}
}

// TestRunPassiveCountsWithdrawals table-tests the fixed withdrawal
// handling: withdrawn-only updates and mixed NLRI+withdrawn updates are
// tallied instead of being silently ignored.
func TestRunPassiveCountsWithdrawals(t *testing.T) {
	d := testDict(t)
	t0 := time.Date(2013, 5, 1, 0, 0, 0, 0, time.UTC)
	p1 := bgp.MustPrefix("10.1.0.0/24")
	p2 := bgp.MustPrefix("10.2.0.0/24")
	p3 := bgp.MustPrefix("10.3.0.0/24")

	cases := []struct {
		name              string
		updates           []*mrt.BGP4MPMessage
		wantWithdrawals   int
		wantWithdrawnOnly int
	}{
		{
			name: "announce-only",
			updates: []*mrt.BGP4MPMessage{
				upd(t0, 100, []bgp.ASN{100, 200}, nil, []bgp.Prefix{p1}, nil),
			},
		},
		{
			name: "withdrawn-only",
			updates: []*mrt.BGP4MPMessage{
				upd(t0, 100, nil, nil, nil, []bgp.Prefix{p1, p2}),
			},
			wantWithdrawals:   2,
			wantWithdrawnOnly: 1,
		},
		{
			name: "mixed nlri and withdrawn",
			updates: []*mrt.BGP4MPMessage{
				upd(t0, 100, []bgp.ASN{100, 200}, nil, []bgp.Prefix{p1}, []bgp.Prefix{p2, p3}),
			},
			wantWithdrawals: 2,
		},
		{
			name: "flap sequence",
			updates: []*mrt.BGP4MPMessage{
				upd(t0, 100, nil, nil, nil, []bgp.Prefix{p1}),
				upd(t0.Add(time.Second), 100, []bgp.ASN{100, 200}, nil, []bgp.Prefix{p1}, nil),
				upd(t0.Add(2*time.Second), 100, nil, nil, nil, []bgp.Prefix{p1}),
			},
			wantWithdrawals:   2,
			wantWithdrawnOnly: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunPassive(nil, tc.updates, d)
			if err != nil {
				t.Fatal(err)
			}
			if res.Withdrawals != tc.wantWithdrawals {
				t.Fatalf("Withdrawals = %d, want %d", res.Withdrawals, tc.wantWithdrawals)
			}
			if res.WithdrawnOnlyUpdates != tc.wantWithdrawnOnly {
				t.Fatalf("WithdrawnOnlyUpdates = %d, want %d", res.WithdrawnOnlyUpdates, tc.wantWithdrawnOnly)
			}
		})
	}
}

// TestRunPassiveWindows drives the windowed runner over a synthetic
// announce/withdraw trace: a withdrawal must end the route's lifetime,
// removing its setter's coverage (and the inferred link) from later
// windows, and a re-announcement must restore it.
func TestRunPassiveWindows(t *testing.T) {
	d := testDict(t)
	t0 := time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)
	w := 10 * time.Minute
	p1 := bgp.MustPrefix("10.1.0.0/24")
	p2 := bgp.MustPrefix("10.2.0.0/24")
	pBogon := bgp.MustPrefix("10.9.0.0/24")
	all := comms(t, "6695:6695")

	updates := []*mrt.BGP4MPMessage{
		// Base state, before the first window opens: two DE-CIX setters
		// (200 and 300) with open policies seen at collector peer 100,
		// plus a bogon-path route that hygiene must drop.
		upd(t0.Add(-2*time.Minute), 100, []bgp.ASN{100, 200}, all, []bgp.Prefix{p1}, nil),
		upd(t0.Add(-time.Minute), 100, []bgp.ASN{100, 300}, all, []bgp.Prefix{p2}, nil),
		upd(t0.Add(-time.Minute), 100, []bgp.ASN{100, bgp.ASTrans, 300}, nil, []bgp.Prefix{pBogon}, nil),
		// Window 1: the route through setter 300 is withdrawn.
		upd(t0.Add(w+time.Minute), 100, nil, nil, nil, []bgp.Prefix{p2}),
		// Window 2: it comes back.
		upd(t0.Add(2*w+time.Minute), 100, []bgp.ASN{100, 300}, all, []bgp.Prefix{p2}, nil),
	}

	res, err := RunPassiveWindows(nil, updates, d, WindowOptions{Start: t0, Window: w, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 3 {
		t.Fatalf("windows = %d, want 3", len(res.Windows))
	}

	w0, w1, w2 := &res.Windows[0], &res.Windows[1], &res.Windows[2]
	if w0.LiveRoutes != 3 {
		t.Fatalf("window 0 live = %d, want 3", w0.LiveRoutes)
	}
	if w0.Dropped.Bogon == 0 {
		t.Fatal("window 0: bogon route not dropped")
	}
	if got := w0.Result.TotalLinks(); got != 1 {
		t.Fatalf("window 0 links = %d, want 1 (200--300)", got)
	}

	if w1.Withdrawn != 1 || w1.WithdrawnOnlyUpdates != 1 {
		t.Fatalf("window 1 withdrawals = %d/%d, want 1/1", w1.Withdrawn, w1.WithdrawnOnlyUpdates)
	}
	if w1.LiveRoutes != 2 {
		t.Fatalf("window 1 live = %d, want 2", w1.LiveRoutes)
	}
	if got := w1.Result.TotalLinks(); got != 0 {
		t.Fatalf("window 1 links = %d, want 0 after withdrawal", got)
	}

	if w2.Announced != 1 {
		t.Fatalf("window 2 announced = %d, want 1", w2.Announced)
	}
	if got := w2.Result.TotalLinks(); got != 1 {
		t.Fatalf("window 2 links = %d, want 1 after re-announcement", got)
	}

	// Stability: full agreement in window 0 by convention, total churn
	// afterwards (1 link ↔ 0 links).
	if res.Stability[0] != 1 || res.Stability[1] != 0 || res.Stability[2] != 0 {
		t.Fatalf("stability = %v, want [1 0 0]", res.Stability)
	}
}

// flapTrace builds a trace exercising base-RIB state, mid-window
// flaps, setter withdrawal/restore, multi-participant paths (the
// rels-dependent §4.2 case 3) and bogon hygiene, across count windows.
func flapTrace(t *testing.T, t0 time.Time, w time.Duration) []*mrt.BGP4MPMessage {
	t.Helper()
	p1 := bgp.MustPrefix("10.1.0.0/24")
	p2 := bgp.MustPrefix("10.2.0.0/24")
	p3 := bgp.MustPrefix("10.3.0.0/24")
	p4 := bgp.MustPrefix("10.4.0.0/24")
	pBogon := bgp.MustPrefix("10.9.0.0/24")
	all := comms(t, "6695:6695")

	return []*mrt.BGP4MPMessage{
		// Base state before the first window: three DE-CIX setters and a
		// bogon-path route that hygiene must drop.
		upd(t0.Add(-3*time.Minute), 100, []bgp.ASN{100, 200}, all, []bgp.Prefix{p1}, nil),
		upd(t0.Add(-2*time.Minute), 100, []bgp.ASN{100, 300}, all, []bgp.Prefix{p2}, nil),
		// Case-3 path: three DE-CIX members (100, 200, 8359); the setter
		// depends on the window's relationship inference.
		upd(t0.Add(-time.Minute), 100, []bgp.ASN{100, 200, 8359}, all, []bgp.Prefix{p4}, nil),
		upd(t0.Add(-time.Minute), 100, []bgp.ASN{100, bgp.ASTrans, 300}, nil, []bgp.Prefix{pBogon}, nil),

		// Window 0: a withdraw-then-reannounce flap of p1 inside the
		// window — the mesh at window close must not notice.
		upd(t0.Add(time.Minute), 100, nil, nil, nil, []bgp.Prefix{p1}),
		upd(t0.Add(2*time.Minute), 100, []bgp.ASN{100, 200}, all, []bgp.Prefix{p1}, nil),

		// Window 1: setter 300 withdrawn; an unrelated route replaces a
		// slot (path change for the same (peer, prefix)).
		upd(t0.Add(w+time.Minute), 100, nil, nil, nil, []bgp.Prefix{p2}),
		upd(t0.Add(w+2*time.Minute), 100, []bgp.ASN{100, 8359, 300}, nil, []bgp.Prefix{p3}, nil),

		// Window 2: 300 re-announces (RS rejoin after a window away),
		// and the case-3 path is fully withdrawn — its shape must be
		// compacted out of the re-pinpoint list at this window's close.
		upd(t0.Add(2*w+time.Minute), 100, []bgp.ASN{100, 300}, all, []bgp.Prefix{p2}, nil),
		upd(t0.Add(2*w+2*time.Minute), 100, nil, nil, nil, []bgp.Prefix{p4}),

		// Window 3: the case-3 shape returns after a dead window: it
		// must re-register for re-pinpointing. Setter 200 also edits its
		// filter (excluding 300), killing the 200--300 link while both
		// stay covered.
		upd(t0.Add(3*w+time.Minute), 100, []bgp.ASN{100, 200, 8359}, all, []bgp.Prefix{p4}, nil),
		upd(t0.Add(3*w+2*time.Minute), 100, []bgp.ASN{100, 200}, comms(t, "6695:6695 0:300"), []bgp.Prefix{p1}, nil),
	}
}

// TestWindowedModesEquivalent pins the tentpole property at test scale:
// the incremental windowed path produces byte-identical per-window ML
// meshes — and identical counters — to the re-mine fallback.
func TestWindowedModesEquivalent(t *testing.T) {
	d := testDict(t)
	t0 := time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)
	w := 10 * time.Minute
	updates := flapTrace(t, t0, w)

	run := func(mode WindowsMode) *PassiveWindowsResult {
		res, err := RunPassiveWindows(nil, updates, d, WindowOptions{Start: t0, Window: w, Count: 4, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inc, rem := run(WindowsIncremental), run(WindowsRemine)

	if len(inc.Windows) != len(rem.Windows) {
		t.Fatalf("window counts diverge: %d vs %d", len(inc.Windows), len(rem.Windows))
	}
	var a, b []byte
	for i := range inc.Windows {
		wi, wr := &inc.Windows[i], &rem.Windows[i]
		a = wi.Result.AppendMesh(a[:0])
		b = wr.Result.AppendMesh(b[:0])
		if !bytes.Equal(a, b) {
			t.Fatalf("window %d: meshes diverge (incremental %d links, remine %d)",
				i, wi.Result.TotalLinks(), wr.Result.TotalLinks())
		}
		if wi.LiveRoutes != wr.LiveRoutes || wi.Dropped != wr.Dropped ||
			wi.RelLinks != wr.RelLinks || wi.P2PRels != wr.P2PRels ||
			wi.MeshLinks != wr.MeshLinks ||
			wi.Announced != wr.Announced || wi.Withdrawn != wr.Withdrawn {
			t.Fatalf("window %d: counters diverge:\nincremental %+v\nremine      %+v", i, wi, wr)
		}
		if inc.Stability[i] != rem.Stability[i] {
			t.Fatalf("window %d: stability diverges: %v vs %v", i, inc.Stability[i], rem.Stability[i])
		}
	}
	// The trace must actually exercise the interesting machinery.
	if inc.Windows[0].Dropped.Bogon == 0 {
		t.Fatal("no bogon was dropped; trace too weak")
	}
	if inc.Windows[0].RelLinks == 0 {
		t.Fatal("no relationship links inferred; trace too weak")
	}
}

// TestWindowFlapRestoresObservationState drives a withdraw-then-
// reannounce flap through the miner inside a single window: every
// refcount — observation store, group refs, live-path counts, drop
// tallies — must return exactly to the pre-flap state.
func TestWindowFlapRestoresObservationState(t *testing.T) {
	d := testDict(t)
	store := paths.NewStore()
	m := newWindowMiner(d, store, relation.NewIncremental(store))

	all := comms(t, "6695:6695")
	ck := commsKey(all)
	p1 := bgp.MustPrefix("10.1.0.0/24")
	p2 := bgp.MustPrefix("10.2.0.0/24")
	id1 := store.Intern([]bgp.ASN{100, 200})
	id2 := store.Intern([]bgp.ASN{100, 300})

	m.apply(m.group(id1, all, ck), p1, 1)
	m.apply(m.group(id2, all, ck), p2, 1)

	snapshot := func() string {
		return fmt.Sprintf("obs=%#v pathLive=%v drops=%d/%d refs=%d/%d",
			m.obs.byIXP["DE-CIX"].setters[200].prefixes[p1],
			m.pathLive, m.dropBogon, m.dropCycle,
			m.group(id1, all, ck).refs, m.group(id2, all, ck).refs)
	}
	before := snapshot()
	var w1 PassiveWindow
	m.closeWindow(&w1)
	if w1.Materialize().TotalLinks() != 1 {
		t.Fatalf("pre-flap links = %d, want 1", w1.Result.TotalLinks())
	}

	// Flap: withdraw and re-announce the same routes within the window.
	m.apply(m.group(id1, all, ck), p1, -1)
	m.apply(m.group(id2, all, ck), p2, -1)
	m.apply(m.group(id1, all, ck), p1, 1)
	m.apply(m.group(id2, all, ck), p2, 1)

	if got := snapshot(); got != before {
		t.Fatalf("flap did not restore miner state:\nbefore %s\nafter  %s", before, got)
	}
	var w2 PassiveWindow
	m.closeWindow(&w2)
	var a, b []byte
	if a, b = w1.Result.AppendMesh(nil), w2.Materialize().AppendMesh(nil); !bytes.Equal(a, b) {
		t.Fatal("flap changed the inferred mesh")
	}

	// Full withdrawal empties the store's live view.
	m.apply(m.group(id1, all, ck), p1, -1)
	m.apply(m.group(id2, all, ck), p2, -1)
	var w3 PassiveWindow
	m.closeWindow(&w3)
	if w3.Materialize().TotalLinks() != 0 || len(m.obs.Setters("DE-CIX")) != 0 {
		t.Fatalf("withdrawn world still covered: %d links, setters %v",
			w3.Result.TotalLinks(), m.obs.Setters("DE-CIX"))
	}
}

// TestWindowedRSLeaveRejoin models an RS leave as the member's
// announcements losing their RS communities for a window, then
// regaining them: coverage (and the member's links) must vanish for
// exactly that window in both modes.
func TestWindowedRSLeaveRejoin(t *testing.T) {
	d := testDict(t)
	t0 := time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)
	w := 10 * time.Minute
	p1 := bgp.MustPrefix("10.1.0.0/24")
	p2 := bgp.MustPrefix("10.2.0.0/24")
	all := comms(t, "6695:6695")

	updates := []*mrt.BGP4MPMessage{
		upd(t0.Add(-2*time.Minute), 100, []bgp.ASN{100, 200}, all, []bgp.Prefix{p1}, nil),
		upd(t0.Add(-time.Minute), 100, []bgp.ASN{100, 300}, all, []bgp.Prefix{p2}, nil),
		// Window 1: 300 leaves the RS — same route, no RS communities.
		upd(t0.Add(w+time.Minute), 100, []bgp.ASN{100, 300}, nil, []bgp.Prefix{p2}, nil),
		// Window 2: 300 rejoins with its old policy.
		upd(t0.Add(2*w+time.Minute), 100, []bgp.ASN{100, 300}, all, []bgp.Prefix{p2}, nil),
	}

	for _, mode := range []WindowsMode{WindowsIncremental, WindowsRemine} {
		res, err := RunPassiveWindows(nil, updates, d, WindowOptions{Start: t0, Window: w, Count: 3, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		links := []int{res.Windows[0].Result.TotalLinks(), res.Windows[1].Result.TotalLinks(), res.Windows[2].Result.TotalLinks()}
		if links[0] != 1 || links[1] != 0 || links[2] != 1 {
			t.Fatalf("%v: links per window = %v, want [1 0 1]", mode, links)
		}
		// The live table never shrank: the member kept announcing, only
		// its RS coverage went away.
		for i, pw := range res.Windows {
			if pw.LiveRoutes != 2 {
				t.Fatalf("%v: window %d live = %d, want 2", mode, i, pw.LiveRoutes)
			}
		}
	}
}

// TestWindowedShadowInferLinks runs the per-window full-InferLinks
// shadow check across a mixed announce/withdraw/RS-leave/filter-edit
// schedule: at every close, the delta-maintained mesh snapshot must be
// byte-identical to a from-scratch InferLinks over the same observation
// store, and the maintained counters must match the full derivation.
//
// The window closes on one goroutine; the subtest is named for that.
func TestWindowedShadowInferLinks(t *testing.T) {
	t.Run("workers=1", windowedShadowInferLinks)
}

func windowedShadowInferLinks(t *testing.T) {
	d := testDict(t)
	t0 := time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)
	w := 10 * time.Minute
	p1 := bgp.MustPrefix("10.1.0.0/24")
	p2 := bgp.MustPrefix("10.2.0.0/24")
	p3 := bgp.MustPrefix("10.3.0.0/24")
	p4 := bgp.MustPrefix("10.4.0.0/24")
	all := comms(t, "6695:6695")
	excl300 := comms(t, "6695:6695 0:300")
	msk := comms(t, "8631:8631")

	updates := []*mrt.BGP4MPMessage{
		// Base: three DE-CIX setters (one via a case-3 path) and one
		// MSK-IX setter, so multiple meshes are maintained at once.
		upd(t0.Add(-4*time.Minute), 100, []bgp.ASN{100, 200}, all, []bgp.Prefix{p1}, nil),
		upd(t0.Add(-3*time.Minute), 100, []bgp.ASN{100, 300}, all, []bgp.Prefix{p2}, nil),
		upd(t0.Add(-2*time.Minute), 100, []bgp.ASN{100, 200, 8359}, all, []bgp.Prefix{p4}, nil),
		upd(t0.Add(-time.Minute), 100, []bgp.ASN{100, 400}, msk, []bgp.Prefix{p3}, nil),

		// Window 0: in-window flap (must be invisible at close).
		upd(t0.Add(time.Minute), 100, nil, nil, nil, []bgp.Prefix{p1}),
		upd(t0.Add(2*time.Minute), 100, []bgp.ASN{100, 200}, all, []bgp.Prefix{p1}, nil),

		// Window 1: filter edit — 200 now excludes 300.
		upd(t0.Add(w+time.Minute), 100, []bgp.ASN{100, 200}, excl300, []bgp.Prefix{p1}, nil),

		// Window 2: RS leave — 300 keeps announcing without communities;
		// the case-3 path is withdrawn.
		upd(t0.Add(2*w+time.Minute), 100, []bgp.ASN{100, 300}, nil, []bgp.Prefix{p2}, nil),
		upd(t0.Add(2*w+2*time.Minute), 100, nil, nil, nil, []bgp.Prefix{p4}),

		// Window 3: 300 rejoins, 200's filter edit reverts, the case-3
		// shape returns.
		upd(t0.Add(3*w+time.Minute), 100, []bgp.ASN{100, 300}, all, []bgp.Prefix{p2}, nil),
		upd(t0.Add(3*w+2*time.Minute), 100, []bgp.ASN{100, 200}, all, []bgp.Prefix{p1}, nil),
		upd(t0.Add(3*w+3*time.Minute), 100, []bgp.ASN{100, 200, 8359}, all, []bgp.Prefix{p4}, nil),

		// Window 4: the MSK-IX setter withdraws everything.
		upd(t0.Add(4*w+time.Minute), 100, nil, nil, nil, []bgp.Prefix{p3}),
	}

	shadowCalls := 0
	var meshLinks []int
	var a, b []byte
	opts := WindowOptions{Start: t0, Window: w, Count: 5, Mode: WindowsIncremental}
	opts.Stream = func(pw *PassiveWindow) {
		shadowCalls++
		m := pw.miner
		full := InferLinks(m.dict, m.obs)
		a = pw.Materialize().AppendMesh(a[:0])
		b = full.AppendMesh(b[:0])
		if !bytes.Equal(a, b) {
			t.Fatalf("window %d: mesh snapshot diverges from full InferLinks (%d vs %d links)",
				shadowCalls-1, pw.Result.TotalLinks(), full.TotalLinks())
		}
		if pw.MeshLinks != full.TotalLinks() {
			t.Fatalf("window %d: MeshLinks %d, full inference %d", shadowCalls-1, pw.MeshLinks, full.TotalLinks())
		}
		// Snapshots share whatever no churn touched with the previous
		// window's Result; the shared parts must still describe this
		// window, field for field.
		if diff := diffResults(pw.Result, full); diff != "" {
			t.Fatalf("window %d: snapshot diverges from full InferLinks: %s", shadowCalls-1, diff)
		}
		if pw.P2PRels != countP2P(m.rel) {
			t.Fatalf("window %d: P2PRels %d, full tally %d", shadowCalls-1, pw.P2PRels, countP2P(m.rel))
		}
		meshLinks = append(meshLinks, pw.MeshLinks)
	}
	if _, err := RunPassiveWindows(nil, updates, d, opts); err != nil {
		t.Fatal(err)
	}
	if shadowCalls != 5 {
		t.Fatalf("shadow ran %d times, want 5", shadowCalls)
	}
	// The schedule must actually move the mesh: the filter edit kills
	// the 200--300 link, the revert restores it.
	if meshLinks[0] == 0 || meshLinks[1] >= meshLinks[0] || meshLinks[3] <= meshLinks[2] {
		t.Fatalf("schedule too weak to exercise the mesh: links per window %v", meshLinks)
	}
}

// TestFlapStormShapeSweep pins the dead-shape sweep: a storm of distinct
// (path, comms) shapes that appear and fully withdraw must be compacted
// out of the lookup map once dead past the grace period, returning the
// shape count to its pre-storm baseline — while a shape that flaps back
// within the grace period keeps its derived state (same group identity).
func TestFlapStormShapeSweep(t *testing.T) {
	d := testDict(t)
	store := paths.NewStore()
	m := newWindowMiner(d, store, relation.NewIncremental(store))

	all := comms(t, "6695:6695")
	ck := commsKey(all)
	p1 := bgp.MustPrefix("10.1.0.0/24")
	id1 := store.Intern([]bgp.ASN{100, 200})

	m.apply(m.group(id1, all, ck), p1, 1)
	var pw PassiveWindow
	m.closeWindow(&pw)
	baseline := m.shapeCount()

	// Storm: distinct comms shapes on the same path, announced then
	// fully withdrawn within one window.
	const stormN = 50
	for i := 0; i < stormN; i++ {
		cs := comms(t, fmt.Sprintf("6695:6695 0:%d", 1000+i))
		k := commsKey(cs)
		m.apply(m.group(id1, cs, k), p1, 1)
		m.apply(m.group(id1, cs, k), p1, -1)
	}
	if got := m.shapeCount(); got != baseline+stormN {
		t.Fatalf("mid-storm shape count = %d, want %d", got, baseline+stormN)
	}

	// One shape flaps back inside the grace period and must keep its
	// identity (derived state preserved, no re-derivation).
	flapComms := comms(t, "6695:6695 0:1000")
	flapKey := commsKey(flapComms)
	flapG := m.group(id1, flapComms, flapKey)
	m.closeWindow(&pw)
	m.apply(m.group(id1, flapComms, flapKey), p1, 1)
	if m.group(id1, flapComms, flapKey) != flapG {
		t.Fatal("shape flapping back within grace lost its identity")
	}
	m.apply(m.group(id1, flapComms, flapKey), p1, -1)

	// Enough idle closes for every storm shape to age past the grace.
	for i := 0; i < deadShapeGrace+2; i++ {
		m.closeWindow(&pw)
	}
	if got := m.shapeCount(); got != baseline {
		t.Fatalf("post-storm shape count = %d, want baseline %d", got, baseline)
	}
	if len(m.deadQueue) != 0 {
		t.Fatalf("dead queue not drained: %d entries", len(m.deadQueue))
	}
	// The swept shape is re-derived from scratch when it returns.
	if m.group(id1, flapComms, flapKey) == flapG {
		t.Fatal("swept shape kept stale identity")
	}
	// The live shape survived the storm and the sweeps.
	if pw.MeshLinks != 0 {
		t.Fatalf("mesh links = %d, want 0 (single covered setter)", pw.MeshLinks)
	}
	if m.obs.Setters("DE-CIX") == nil {
		t.Fatal("live setter lost during sweep")
	}
}

// TestWindowedStreamingMatchesRetained pins a consumer that never calls
// Materialize to the retained run: the same per-window counters arrive
// through the Stream callback, with no materialized Result.
func TestWindowedStreamingMatchesRetained(t *testing.T) {
	d := testDict(t)
	t0 := time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)
	w := 10 * time.Minute
	updates := flapTrace(t, t0, w)

	retained, err := RunPassiveWindows(nil, updates, d, WindowOptions{Start: t0, Window: w, Count: 4})
	if err != nil {
		t.Fatal(err)
	}

	type row struct {
		live, relLinks, p2p, mesh int
		stability                 float64
	}
	var got []row
	opts := WindowOptions{Start: t0, Window: w, Count: 4, Stream: func(pw *PassiveWindow) {
		if pw.Result != nil {
			t.Fatal("a window nobody materialized carries a Result")
		}
		got = append(got, row{pw.LiveRoutes, pw.RelLinks, pw.P2PRels, pw.MeshLinks, pw.Stability})
	}}
	res, err := RunPassiveWindows(nil, updates, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 0 {
		t.Fatalf("streaming run retained %d windows", len(res.Windows))
	}
	if len(got) != len(retained.Windows) {
		t.Fatalf("streamed %d windows, retained run has %d", len(got), len(retained.Windows))
	}
	for i, r := range got {
		pw := &retained.Windows[i]
		want := row{pw.LiveRoutes, pw.RelLinks, pw.P2PRels, pw.Result.TotalLinks(), retained.Stability[i]}
		if r != want {
			t.Fatalf("window %d: streamed %+v, retained %+v", i, r, want)
		}
		if res.Stability[i] != retained.Stability[i] {
			t.Fatalf("window %d: streamed stability %v, retained %v", i, res.Stability[i], retained.Stability[i])
		}
	}
}

// TestRunPassiveWindowsValidation rejects degenerate options.
func TestRunPassiveWindowsValidation(t *testing.T) {
	d := testDict(t)
	if _, err := RunPassiveWindows(nil, nil, d, WindowOptions{Window: 0, Count: 1}); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := RunPassiveWindows(nil, nil, d, WindowOptions{Window: time.Minute, Count: 0}); err == nil {
		t.Fatal("zero count accepted")
	}
	ctx, stream := context.Background(), func(*PassiveWindow) {}
	for name, opts := range map[string]WindowOptions{
		"without Ctx":    {Stream: stream},
		"without Stream": {Ctx: ctx},
		"in remine mode": {Ctx: ctx, Stream: stream, Mode: WindowsRemine},
	} {
		opts.Window, opts.Count, opts.Loop = time.Minute, 1, true
		if _, err := RunPassiveWindows(nil, nil, d, opts); err == nil {
			t.Fatalf("a looped replay %s accepted", name)
		}
	}
}

// TestLoopedReplayRewinds pins the wrap on a trace whose cycle opens a
// slot that was empty (p3) and re-filters another (p1), while p2 and p4
// leave and come back as they were: every window of four looped cycles
// matches the same window of a fresh run, mesh, counters and stability
// alike, and each wrap restores exactly the two slots that moved.
func TestLoopedReplayRewinds(t *testing.T) {
	d := testDict(t)
	t0 := time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)
	w := 10 * time.Minute
	updates := flapTrace(t, t0, w)
	const count, cycles = 4, 4

	type window struct {
		counters string
		mesh     []byte
	}
	digest := func(pw *PassiveWindow) window {
		return window{
			fmt.Sprintf("[%v %v) %d %d %d %d %+v %d %d %d %v", pw.Start, pw.End, pw.Announced, pw.Withdrawn,
				pw.WithdrawnOnlyUpdates, pw.LiveRoutes, pw.Dropped, pw.RelLinks, pw.P2PRels, pw.MeshLinks, pw.Stability),
			pw.Materialize().AppendMesh(nil),
		}
	}
	var fresh []window
	_, err := RunPassiveWindows(nil, updates, d, WindowOptions{Start: t0, Window: w, Count: count,
		Stream: func(pw *PassiveWindow) { fresh = append(fresh, digest(pw)) }})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	res, err := RunPassiveWindows(nil, updates, d, WindowOptions{Start: t0, Window: w, Count: count, Ctx: ctx, Loop: true,
		Stream: func(pw *PassiveWindow) {
			k := n % count
			got := digest(pw)
			if got.counters != fresh[k].counters || !bytes.Equal(got.mesh, fresh[k].mesh) {
				t.Errorf("window %d (position %d):\n looped %s %x\n fresh  %s %x", n, k, got.counters, got.mesh, fresh[k].counters, fresh[k].mesh)
			}
			if want := map[bool]int{true: 2}[k == 0 && n > 0]; pw.Rewound != want {
				t.Errorf("window %d: %d slots rewound, want %d", n, pw.Rewound, want)
			}
			if n++; n == cycles*count {
				cancel()
			}
		}})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("looped replay returned (%v, %v), want context.Canceled", res, err)
	}
	if n != cycles*count {
		t.Fatalf("looped replay closed %d windows, want %d", n, cycles*count)
	}
}

// TestStreamMaterializeAndCancel pins the one window contract: a
// consumer asks for the mesh with pw.Materialize() inside the callback
// and gets one snapshot per window — the same pointer on a second call,
// the previous window's pointer for an idle window, a fingerprint equal
// to the default retaining consumer's, and a Result that still describes
// its window after the run has ended; a consumer that never asks sees no
// Result; and a cancelled Ctx stops the replay at the next close
// boundary instead of committing further windows.
func TestStreamMaterializeAndCancel(t *testing.T) {
	d := testDict(t)
	t0 := time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)
	w := 10 * time.Minute
	updates := flapTrace(t, t0, w)
	// Windows 4 and 5 lie past the trace's last update: idle.
	opts := WindowOptions{Start: t0, Window: w, Count: 6}

	retained, err := RunPassiveWindows(nil, updates, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if retained.Windows[0].miner != nil {
		t.Fatal("a retained window pins the mining state")
	}

	var fps []uint64
	var links []int
	var results []*Result
	sopts := opts
	sopts.Stream = func(pw *PassiveWindow) {
		if pw.Result != nil {
			t.Fatal("window carried a Result before Materialize was called")
		}
		bare := pw.CloseTime
		res := pw.Materialize()
		if res == nil || res != pw.Result {
			t.Fatal("Materialize did not set the window's Result")
		}
		if pw.CloseTime < bare {
			t.Fatal("Materialize shrank CloseTime")
		}
		if pw.Materialize() != res {
			t.Fatal("a second Materialize in one callback returned a different Result")
		}
		fps = append(fps, res.Fingerprint())
		links = append(links, res.TotalLinks())
		results = append(results, res) // must stay valid after the callback
	}
	if _, err := RunPassiveWindows(nil, updates, d, sopts); err != nil {
		t.Fatal(err)
	}
	if len(fps) != len(retained.Windows) {
		t.Fatalf("streamed %d windows, retained run has %d", len(fps), len(retained.Windows))
	}
	for i := range fps {
		if want := retained.Windows[i].Result.Fingerprint(); fps[i] != want {
			t.Fatalf("window %d: streamed fingerprint %x, retained %x", i, fps[i], want)
		}
		// The retained pointer must still describe the window it was
		// snapshotted at, not the latest mesh, now that the run is over.
		if got := results[i].TotalLinks(); got != links[i] || got != retained.Windows[i].Result.TotalLinks() {
			t.Fatalf("window %d: retained snapshot drifted to %d links", i, got)
		}
		if results[i].Fingerprint() != fps[i] {
			t.Fatalf("window %d: retained snapshot's fingerprint drifted", i)
		}
	}
	if results[5] != results[4] || results[4] != results[3] {
		t.Fatal("an idle window's Materialize did not return the previous window's *Result")
	}
	if results[1] == results[0] {
		t.Fatal("a churned window's Materialize returned the previous window's *Result")
	}

	// A consumer that never calls Materialize sees no Result.
	plain := opts
	plain.Stream = func(pw *PassiveWindow) {
		if pw.Result != nil {
			t.Fatal("a window nobody materialized carries a Result")
		}
	}
	if _, err := RunPassiveWindows(nil, updates, d, plain); err != nil {
		t.Fatal(err)
	}

	// A pre-cancelled context commits nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	copts := opts
	copts.Ctx = ctx
	if _, err := RunPassiveWindows(nil, updates, d, copts); err != context.Canceled {
		t.Fatalf("pre-cancelled replay returned %v, want context.Canceled", err)
	}

	// Cancelling mid-replay stops at the next close boundary.
	ctx2, cancel2 := context.WithCancel(context.Background())
	seen := 0
	mopts := opts
	mopts.Ctx = ctx2
	mopts.Stream = func(pw *PassiveWindow) {
		seen++
		if seen == 2 {
			cancel2()
		}
	}
	if _, err := RunPassiveWindows(nil, updates, d, mopts); err != context.Canceled {
		t.Fatalf("mid-replay cancel returned %v, want context.Canceled", err)
	}
	if seen != 2 {
		t.Fatalf("replay committed %d windows after cancel, want 2", seen)
	}
}

// TestLateMaterializePanics pins the failure mode of the contract above:
// a window first materialized after the miner closed a later one would
// snapshot that later mesh under this window's name — and become the
// base the next index is patched from — so it panics, naming the
// contract. A window materialized in time keeps answering afterwards.
func TestLateMaterializePanics(t *testing.T) {
	d := testDict(t)
	t0 := time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)
	w := 10 * time.Minute
	var unasked, asked PassiveWindow
	opts := WindowOptions{Start: t0, Window: w, Count: 3, Stream: func(pw *PassiveWindow) {
		switch pw.Start {
		case t0:
			unasked = *pw
		case t0.Add(w):
			pw.Materialize()
			asked = *pw
		}
	}}
	if _, err := RunPassiveWindows(nil, flapTrace(t, t0, w), d, opts); err != nil {
		t.Fatal(err)
	}
	if res := asked.Result; res == nil || asked.Materialize() != res {
		t.Fatal("a window materialized inside its callback lost its Result afterwards")
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "call inside the Stream callback") {
			t.Fatalf("late Materialize: recovered %q, want a panic naming the contract", msg)
		}
	}()
	unasked.Materialize()
	t.Fatal("late Materialize returned instead of panicking")
}

// TestResultFingerprint pins the fingerprint contract: equal meshes
// fingerprint equal, different meshes differ, and the value tracks the
// canonical AppendMesh encoding.
func TestResultFingerprint(t *testing.T) {
	d := testDict(t)
	t0 := time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)
	w := 10 * time.Minute
	res, err := RunPassiveWindows(nil, flapTrace(t, t0, w), d, WindowOptions{Start: t0, Window: w, Count: 4})
	if err != nil {
		t.Fatal(err)
	}
	w0, w1 := res.Windows[0].Result, res.Windows[1].Result
	if w0.Fingerprint() != w0.Fingerprint() {
		t.Fatal("fingerprint not stable across calls")
	}
	if bytes.Equal(w0.AppendMesh(nil), w1.AppendMesh(nil)) == (w0.Fingerprint() != w1.Fingerprint()) {
		t.Fatalf("fingerprint equality diverges from mesh encoding equality")
	}
}

// diffResults compares two Results structurally — per-IXP members,
// filters, sources, covered lists and link sets, and the attributed
// link map — returning the first difference, "" when equal.
func diffResults(got, want *Result) string {
	if len(got.PerIXP) != len(want.PerIXP) {
		return fmt.Sprintf("%d IXPs, want %d", len(got.PerIXP), len(want.PerIXP))
	}
	for name, w := range want.PerIXP {
		g := got.PerIXP[name]
		if g == nil {
			return name + ": missing"
		}
		if !slices.Equal(g.Members, w.Members) || !slices.Equal(g.CoveredMembers(), w.CoveredMembers()) {
			return fmt.Sprintf("%s: members %v covered %v, want %v / %v", name, g.Members, g.CoveredMembers(), w.Members, w.CoveredMembers())
		}
		for m, wf := range w.Filters {
			if gf, ok := g.Filters[m]; !ok || !gf.Equal(wf) || g.Sources[m] != w.Sources[m] {
				return fmt.Sprintf("%s: setter %d filter/source differs", name, m)
			}
		}
		if !maps.Equal(g.Links, w.Links) {
			return fmt.Sprintf("%s: %d links, want %d", name, len(g.Links), len(w.Links))
		}
	}
	if !maps.EqualFunc(got.Links, want.Links, slices.Equal[[]string]) {
		return "attributed link maps differ"
	}
	return ""
}

// TestSnapshotSharesUnchangedStructure pins what consecutive
// MeshState.Snapshot calls share: an idle window returns the previous
// *Result itself (memos included), a window that churned one IXP
// rebuilds that IXP's inference and keeps the other's pointer, and a
// Result whose link set moved gets a fresh link map and no inherited
// index.
func TestSnapshotSharesUnchangedStructure(t *testing.T) {
	d := testDict(t)
	t0 := time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)
	w := 10 * time.Minute
	p1 := bgp.MustPrefix("10.1.0.0/24")
	p2 := bgp.MustPrefix("10.2.0.0/24")
	p3 := bgp.MustPrefix("10.3.0.0/24")
	p5 := bgp.MustPrefix("10.5.0.0/24")
	all := comms(t, "6695:6695")
	msk := comms(t, "8631:8631")

	updates := []*mrt.BGP4MPMessage{
		upd(t0.Add(-4*time.Minute), 100, []bgp.ASN{100, 200}, all, []bgp.Prefix{p1}, nil),
		upd(t0.Add(-3*time.Minute), 100, []bgp.ASN{100, 300}, all, []bgp.Prefix{p2}, nil),
		upd(t0.Add(-2*time.Minute), 100, []bgp.ASN{100, 400}, msk, []bgp.Prefix{p3}, nil),
		upd(t0.Add(-time.Minute), 100, []bgp.ASN{100, 500}, msk, []bgp.Prefix{p5}, nil),
		// Window 0: base only. Window 1: idle.
		// Window 2: DE-CIX filter edit (200 excludes 300); MSK-IX untouched.
		upd(t0.Add(2*w+time.Minute), 100, []bgp.ASN{100, 200}, comms(t, "6695:6695 0:300"), []bgp.Prefix{p1}, nil),
		// Window 3: an announcement that re-derives 400's filter to the
		// same policy: a dirty setter, nothing to rebuild.
		upd(t0.Add(3*w+time.Minute), 100, []bgp.ASN{100, 400}, msk, []bgp.Prefix{bgp.MustPrefix("10.6.0.0/24")}, nil),
		// Windows 4, 5: idle.
	}

	var results []*Result
	opts := WindowOptions{Start: t0, Window: w, Count: 6}
	opts.Stream = func(pw *PassiveWindow) {
		res := pw.Materialize()
		if diff := diffResults(res, InferLinks(pw.miner.dict, pw.miner.obs)); diff != "" {
			t.Fatalf("window %d: %s", len(results), diff)
		}
		// The consumer's prefill, as serve.NewSnapshot does it.
		res.BuildIndex(nil)
		results = append(results, res)
	}
	if _, err := RunPassiveWindows(nil, updates, d, opts); err != nil {
		t.Fatal(err)
	}
	r := results
	if r[0].TotalLinks() != 2 {
		t.Fatalf("base mesh has %d links, want 2 (200-300 at DE-CIX, 400-500 at MSK-IX)", r[0].TotalLinks())
	}
	if r[1] != r[0] {
		t.Error("idle window 1 did not return window 0's *Result")
	}
	if r[1].linkIndex == nil {
		t.Error("the shared Result lost its index memo")
	}
	if r[2] == r[1] {
		t.Fatal("churned window 2 returned the previous *Result")
	}
	if r[2].PerIXP["DE-CIX"] == r[1].PerIXP["DE-CIX"] {
		t.Error("DE-CIX churned in window 2 but kept its *IXPInference")
	}
	if r[2].PerIXP["MSK-IX"] != r[1].PerIXP["MSK-IX"] {
		t.Error("MSK-IX was untouched in window 2 but its *IXPInference was rebuilt")
	}
	if r[2].TotalLinks() != 1 || r[2].Fingerprint() == r[1].Fingerprint() {
		t.Errorf("window 2 should have lost the 200-300 link: %d links", r[2].TotalLinks())
	}
	if r[3] != r[2] {
		t.Error("window 3 re-derived an equal filter, yet did not return window 2's *Result")
	}
	if r[5] != r[3] || r[4] != r[3] {
		t.Error("idle windows 4, 5 did not return window 3's *Result")
	}
	// The old Result is a retained immutable view: still the base mesh.
	if r[0].TotalLinks() != 2 || len(r[0].linkIndex.Links) != 2 {
		t.Error("window 0's Result drifted after later windows")
	}
}

// TestLinkIndexMatchesScan checks the CSR rows against a full scan of
// the link map, for every AS and IXP of a multi-IXP result.
func TestLinkIndexMatchesScan(t *testing.T) {
	d := testDict(t)
	obs := NewObservations()
	for i, m := range []bgp.ASN{100, 200, 300, 8359} {
		obs.Add("DE-CIX", m, bgp.MustPrefix(fmt.Sprintf("10.%d.0.0/24", i)), comms(t, "6695:6695"), ObsPassive)
	}
	for i, m := range []bgp.ASN{100, 400, 500} {
		obs.Add("MSK-IX", m, bgp.MustPrefix(fmt.Sprintf("11.%d.0.0/24", i)), comms(t, "8631:8631"), ObsPassive)
	}
	res := InferLinks(d, obs)
	fp, mesh := res.Fingerprint(), res.AppendMesh(nil)
	if res.linkIndex != nil {
		t.Fatal("Fingerprint/AppendMesh built the index; only BuildIndex may")
	}
	x := res.BuildIndex(nil)
	if x != res.BuildIndex(nil) || x != res.linkIndex {
		t.Fatal("BuildIndex is not memoized")
	}
	if x.Fingerprint != fp || res.Fingerprint() != fp || !bytes.Equal(res.AppendMesh(nil), mesh) {
		t.Fatal("indexed fingerprint/mesh encoding differs from the unindexed one")
	}
	if len(x.Links) != len(res.Links) || len(x.Links) != 9 {
		t.Fatalf("index has %d links, result %d, want 9", len(x.Links), len(res.Links))
	}
	for i := 1; i < len(x.Links); i++ {
		a, b := x.Links[i-1].Key, x.Links[i].Key
		if a.A > b.A || a.A == b.A && a.B >= b.B {
			t.Fatalf("links not ascending at %d: %v then %v", i, a, b)
		}
	}
	gather := func(rows []uint32) []topology.LinkKey {
		out := []topology.LinkKey{}
		for _, i := range rows {
			out = append(out, x.Links[i].Key)
		}
		return out
	}
	for _, asn := range []bgp.ASN{100, 200, 300, 400, 500, 8359, 600, 1} {
		want := []topology.LinkKey{}
		for _, l := range x.Links { // already ascending
			if l.Key.A == asn || l.Key.B == asn {
				want = append(want, l.Key)
			}
		}
		if got := gather(x.ASLinks(asn)); !slices.Equal(got, want) {
			t.Errorf("AS %d: rows %v, scan %v", asn, got, want)
		}
	}
	for name, inf := range res.PerIXP {
		rows, ok := x.IXPLinks(name)
		if !ok {
			t.Fatalf("IXP %s missing from the index", name)
		}
		got := gather(rows)
		if len(got) != len(inf.Links) {
			t.Errorf("IXP %s: %d rows, %d links", name, len(got), len(inf.Links))
		}
		for i, k := range got {
			if !inf.Links[k] || i > 0 && (got[i-1].A > k.A || got[i-1].A == k.A && got[i-1].B >= k.B) {
				t.Errorf("IXP %s: row %d (%v) not an ascending link of the IXP", name, i, k)
			}
		}
	}
	if _, ok := x.IXPLinks("NO-SUCH"); ok {
		t.Error("IXPLinks found an IXP the result does not have")
	}
}
