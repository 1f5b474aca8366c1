package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/mrt"
	"mlpeering/internal/paths"
	"mlpeering/internal/relation"
	"mlpeering/internal/topology"
)

// WindowsMode selects how each window's ML mesh is derived.
type WindowsMode int

// Windowed inference modes.
const (
	// WindowsIncremental derives every window from the delta-maintained
	// observation store: announce/withdraw events apply as +/- deltas to
	// refcounted observation counts and to the incremental relation
	// oracle, so a window close touches only what changed.
	WindowsIncremental WindowsMode = iota
	// WindowsRemine re-mines the entire live table at every window
	// close — the pre-incremental cost profile (sort, hygiene, batch
	// relation inference and community mining over every live route).
	// It is the reference implementation the equivalence tests and the
	// benchmark's traced run compare the incremental path against, not a
	// mode any command selects: both produce byte-identical per-window
	// meshes. Note both modes share the canonical order-independent
	// observation reduction (see prefixDelta.winner); where feeders
	// disagree on a (setter, prefix) community set, the smallest
	// canonical set wins, where the PR 4 miner kept the last set in
	// sorted row order.
	WindowsRemine
)

// String implements fmt.Stringer.
func (m WindowsMode) String() string {
	switch m {
	case WindowsRemine:
		return "remine"
	default:
		return "incremental"
	}
}

// WindowOptions parameterizes RunPassiveWindows.
type WindowOptions struct {
	// Start is the first window's opening time; updates before it are
	// folded into the base RIB state without emitting a window.
	Start time.Time
	// Window is each inference window's duration.
	Window time.Duration
	// Count is the number of windows to emit. Windows past the last
	// update still run (over the then-static live table).
	Count int
	// Mode selects incremental (default) derivation or the re-mine
	// oracle.
	Mode WindowsMode
	// Workers caps the worker pool the incremental miner fans out on at
	// window close (sharded delta flush, per-IXP mesh re-checks, the
	// relation oracle's Commit, snapshotting). 0 means GOMAXPROCS; 1
	// forces the sequential path. Results are bit-identical for any
	// value. Remine mode ignores it.
	Workers int
	// Stream is the window consumer: every closed window is handed to it
	// once, in order. The window carries the maintained counters
	// (MeshLinks, Stability, CloseTime, ...); a consumer that wants the
	// mesh itself calls pw.Materialize() inside the callback, and one
	// that does not pays O(churn) per close, not O(mesh). The pointer is
	// only valid for the duration of the callback. Nil means the default
	// consumer, which materializes every window and appends it to
	// PassiveWindowsResult.Windows.
	Stream func(*PassiveWindow)
	// Ctx, when non-nil, cancels the replay: the run returns ctx.Err()
	// at the next window-close boundary after cancellation. Committed
	// windows already handed to Stream stay valid.
	Ctx context.Context
}

// PassiveWindow is one window's inference outcome over the routes live
// at the window's close.
type PassiveWindow struct {
	Start, End time.Time

	// Announced / Withdrawn count prefix-level events inside the
	// window; WithdrawnOnlyUpdates the UPDATEs carrying only
	// withdrawals.
	Announced, Withdrawn int
	WithdrawnOnlyUpdates int

	// LiveRoutes is the (feeder, prefix) table size at window close.
	LiveRoutes int
	// Dropped tallies hygiene-filtered live routes.
	Dropped DropStats
	// RelLinks and P2PRels describe the window's AS-relationship
	// inference: total inferred links and the p2p-labelled subset. In
	// incremental mode both are delta-maintained counters.
	RelLinks, P2PRels int
	// MeshLinks is the distinct inferred ML link count — equal to
	// Result.TotalLinks(), but available without materializing.
	MeshLinks int
	// Stability is the Jaccard similarity between this window's and the
	// previous window's link sets (1 for the first window).
	Stability float64
	// CloseTime is the wall-clock cost of deriving this window at close,
	// including Materialize once it has been called.
	CloseTime time.Duration
	// Result is the multilateral-peering inference over the window's
	// live view. In incremental mode it is nil until Materialize is
	// called; the maintained counters above need no Result.
	Result *Result

	// miner is the incremental miner that closed this window, whose mesh
	// Materialize snapshots, and epoch that miner's close count when it
	// did; nil in remine mode, where the derivation itself produces
	// Result.
	miner *windowMiner
	epoch int
}

// Materialize returns the window's Result, snapshotting the maintained
// mesh on the first call (exactly one MeshState.Snapshot per window) and
// returning the same pointer on every later one. The snapshot's cost is
// added to CloseTime, so a consumer that materializes before reading
// CloseTime sees the whole cost of producing the window. It must be
// called inside the WindowOptions.Stream callback the window was handed
// to: afterwards the miner has moved on, and a first call then panics
// rather than pass a later window's mesh off as this one's (and make it
// the base the next window's index is patched from). The Result is
// immutable and safe to retain beyond the callback; whatever no churn
// touched since the previously materialized window is shared with that
// window's Result (see MeshState.Snapshot), down to the same pointer for
// an idle window.
func (w *PassiveWindow) Materialize() *Result {
	if w.Result == nil && w.miner != nil {
		if w.miner.epoch != w.epoch {
			panic(fmt.Sprintf("core: PassiveWindow.Materialize on the window closed at epoch %d after the miner moved on to epoch %d: call inside the Stream callback", w.epoch, w.miner.epoch))
		}
		//mlplint:clock close-duration telemetry only; never feeds inference or window boundaries
		t0 := time.Now()
		w.Result = w.miner.mesh.Snapshot(w.miner.workers)
		w.CloseTime += time.Since(t0)
	}
	return w.Result
}

// PassiveWindowsResult is the windowed passive run: one inference per
// time window plus the stability of the inferred mesh across windows.
type PassiveWindowsResult struct {
	// Windows holds each window's outcome, materialized, when the default
	// consumer ran; empty when WindowOptions.Stream consumed them.
	Windows []PassiveWindow
	// Stability[i] is the Jaccard similarity between window i's and
	// window i-1's inferred link sets (Stability[0] == 1). Populated
	// whoever consumes the windows: it is O(1) per window.
	Stability []float64
}

// liveKey identifies one route slot in a collector's view.
type liveKey struct {
	peer   bgp.ASN
	prefix bgp.Prefix
}

// liveRoute is the route occupying a slot. ckey is the canonical
// encoding of comms, computed once per UPDATE so grouped mining never
// re-encodes on withdrawal.
type liveRoute struct {
	path  paths.ID
	comms bgp.Communities
	ckey  string
}

// RunPassiveWindows is the dynamic counterpart of RunPassive: it replays
// an announce+withdraw update trace over the base RIB dumps, maintaining
// each collector peer's live route table, and re-runs the §4.2 inference
// at every window close over the routes alive at that instant. A
// withdrawal ends its route's lifetime, so transient flaps never leak
// into the inferred mesh — the hygiene property §5 approximates with its
// update-only filter in snapshot mode. Updates must be ordered as read
// from the archive; equal timestamps keep file order.
//
// In the default incremental mode every event applies as a +/- delta to
// the refcounted observation store and the incremental relation oracle,
// so a window close costs O(changes), not O(live table); remine mode
// rebuilds everything per window and is pinned byte-identical by the
// equivalence tests. Either way each closed window is handed to one
// consumer, opts.Stream, which asks for the mesh with pw.Materialize().
func RunPassiveWindows(dumps []*mrt.Dump, updates []*mrt.BGP4MPMessage, dict *Dictionary, opts WindowOptions) (*PassiveWindowsResult, error) {
	if opts.Window <= 0 {
		return nil, fmt.Errorf("core: non-positive window %v", opts.Window)
	}
	if opts.Count <= 0 {
		return nil, fmt.Errorf("core: non-positive window count %d", opts.Count)
	}

	store := paths.NewStore()
	live := make(map[liveKey]liveRoute)
	var miner *windowMiner
	if opts.Mode == WindowsIncremental {
		miner = newWindowMiner(dict, store, relation.NewIncremental(store), opts.Workers)
	}

	// intern resolves an announced (path, communities) to its canonical
	// shape: probe the shape map with a scratch key first (string(ckb)
	// map access compiles allocation-free) and only Clone the community
	// set — and materialize the key — on first sight of the shape. In
	// remine mode, where the miner's shape map is rebuilt per window, a
	// run-scoped side table provides the same interning.
	var ckb []byte
	var remineShapes map[paths.ID]map[string]liveRoute
	if miner == nil {
		remineShapes = make(map[paths.ID]map[string]liveRoute)
	}
	intern := func(id paths.ID, comms bgp.Communities) liveRoute {
		ckb = appendCommsKey(ckb[:0], comms)
		if miner != nil {
			if g, ok := miner.groups[id][string(ckb)]; ok {
				return liveRoute{path: id, comms: g.comms, ckey: g.ckey}
			}
		} else if r, ok := remineShapes[id][string(ckb)]; ok {
			return r
		}
		r := liveRoute{path: id, comms: comms.Clone(), ckey: string(ckb)}
		if miner == nil {
			inner := remineShapes[id]
			if inner == nil {
				inner = make(map[string]liveRoute, 1)
				remineShapes[id] = inner
			}
			inner[r.ckey] = r
		}
		return r
	}

	set := func(k liveKey, r liveRoute) {
		if miner != nil {
			if old, ok := live[k]; ok {
				miner.apply(miner.group(old.path, old.comms, old.ckey), k.prefix, -1)
			}
			miner.apply(miner.group(r.path, r.comms, r.ckey), k.prefix, 1)
		}
		live[k] = r
	}
	del := func(k liveKey) {
		old, ok := live[k]
		if !ok {
			return
		}
		if miner != nil {
			miner.apply(miner.group(old.path, old.comms, old.ckey), k.prefix, -1)
		}
		delete(live, k)
	}

	// Base state: the stable RIB dumps.
	for _, d := range dumps {
		if d == nil || d.Index == nil {
			continue
		}
		for _, rib := range d.RIBs {
			for _, e := range rib.Entries {
				if e.Attrs == nil {
					continue
				}
				peer := d.Index.Peers[e.PeerIndex].ASN
				id := store.InternASPath(e.Attrs.ASPath)
				set(liveKey{peer, rib.Prefix}, intern(id, e.Attrs.Communities))
			}
		}
	}

	res := &PassiveWindowsResult{}
	consume := opts.Stream
	if consume == nil {
		consume = func(pw *PassiveWindow) {
			pw.Materialize()
			pw.miner = nil // a retained window must not pin the mining state
			res.Windows = append(res.Windows, *pw)
		}
	}
	cur := PassiveWindow{Start: opts.Start, End: opts.Start.Add(opts.Window)}

	// prevRemineLinks carries the previous window's link set for the
	// remine-mode stability computation; incremental mode derives
	// stability from the mesh's running counters instead.
	var prevRemineLinks map[topology.LinkKey][]string
	winIdx := 0
	closeWindow := func() {
		//mlplint:clock close-duration telemetry only; never feeds inference or window boundaries
		t0 := time.Now()
		cur.LiveRoutes = len(live)
		if miner != nil {
			miner.closeWindow(&cur)
		} else {
			remineLiveTable(store, live, dict, &cur)
			cur.MeshLinks = cur.Result.TotalLinks()
			cur.Stability = jaccardLinks(prevRemineLinks, cur.Result.Links)
			prevRemineLinks = cur.Result.Links
		}
		if winIdx == 0 {
			cur.Stability = 1
		}
		cur.CloseTime = time.Since(t0)
		res.Stability = append(res.Stability, cur.Stability)
		consume(&cur)
		winIdx++
		cur = PassiveWindow{Start: cur.End, End: cur.End.Add(opts.Window)}
	}

	apply := func(u *mrt.BGP4MPMessage, count bool) {
		upd, ok := u.Message.(*bgp.Update)
		if !ok {
			return
		}
		for _, p := range upd.Withdrawn {
			del(liveKey{u.PeerASN, p})
		}
		if count {
			cur.Withdrawn += len(upd.Withdrawn)
		}
		if upd.Attrs == nil || len(upd.NLRI) == 0 {
			if count && len(upd.Withdrawn) > 0 {
				cur.WithdrawnOnlyUpdates++
			}
			return
		}
		id := store.InternASPath(upd.Attrs.ASPath)
		r := intern(id, upd.Attrs.Communities)
		for _, p := range upd.NLRI {
			set(liveKey{u.PeerASN, p}, r)
		}
		if count {
			cur.Announced += len(upd.NLRI)
		}
	}

	// cancelled polls the optional replay context; cancellation is
	// observed at window-close boundaries, the unit of committed work.
	cancelled := func() error {
		if opts.Ctx == nil {
			return nil
		}
		return opts.Ctx.Err()
	}
	if err := cancelled(); err != nil {
		return nil, err
	}

	for _, u := range updates {
		// Pre-window updates adjust the base table without counting.
		if u.Timestamp.Before(opts.Start) {
			apply(u, false)
			continue
		}
		for winIdx < opts.Count && !u.Timestamp.Before(cur.End) {
			if err := cancelled(); err != nil {
				return nil, err
			}
			closeWindow()
		}
		if winIdx >= opts.Count {
			break
		}
		apply(u, true)
	}
	for winIdx < opts.Count {
		if err := cancelled(); err != nil {
			return nil, err
		}
		closeWindow()
	}
	return res, nil
}

// remineLiveTable runs hygiene + community mining + link inference over
// the full live table, deterministically (the table is sorted before
// mining): the re-mine fallback the incremental path is pinned against.
// It reuses the same grouped derivation and refcounted store, built
// from scratch, so both modes reduce observations identically.
func remineLiveTable(store *paths.Store, live map[liveKey]liveRoute, dict *Dictionary, w *PassiveWindow) {
	keys := make([]liveKey, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].peer != keys[j].peer {
			return keys[i].peer < keys[j].peer
		}
		return bgp.ComparePrefixes(keys[i].prefix, keys[j].prefix) < 0
	})

	m := newWindowMiner(dict, store, nil, 1)
	var kept []paths.ID
	for _, k := range keys {
		r := live[k]
		g := m.group(r.path, r.comms, r.ckey)
		if g.keptPath() && m.pathLive[g.path] == 0 {
			kept = append(kept, g.path)
		}
		m.apply(g, k.prefix, 1)
	}

	rels := relation.Infer(paths.NewView(store, kept))
	for _, g := range m.relsDeps {
		setter, ok := PinpointSetter(store.Path(g.path), g.entry, rels)
		m.moveContributions(g, ok, setter)
	}

	w.Dropped.Bogon = m.dropBogon
	w.Dropped.Cycle = m.dropCycle
	w.RelLinks = rels.LinkCount()
	w.P2PRels = countP2P(rels)
	w.Result = InferLinks(dict, m.obs)
}

// jaccardLinks computes |a∩b| / |a∪b| over link sets (1 when both are
// empty), iterating only the smaller side.
func jaccardLinks(a, b map[topology.LinkKey][]string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	small, big := a, b
	if len(b) < len(a) {
		small, big = b, a
	}
	inter := 0
	for k := range small {
		if _, ok := big[k]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}
