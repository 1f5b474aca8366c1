package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/mrt"
	"mlpeering/internal/par"
	"mlpeering/internal/paths"
	"mlpeering/internal/relation"
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
	// WindowsRemine is the same replay plus a from-scratch re-mine of
	// the entire live table at every window close — the pre-incremental
	// cost profile (sort, hygiene, batch relation inference and community
	// mining over every live route) on top of the incremental one. The
	// re-mine reads only each slot's (path, communities) and re-derives
	// everything in a fresh miner; its Result, counters and stability
	// replace the incremental ones. It is the reference implementation
	// the equivalence tests and the benchmark's traced run compare the
	// incremental path against, not a mode any command selects: both
	// produce byte-identical per-window meshes. Note both modes share
	// the canonical order-independent observation reduction (see
	// prefixDelta.winner); where feeders disagree on a (setter, prefix)
	// community set, the smallest canonical set wins, where the PR 4
	// miner kept the last set in sorted row order.
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
	// Start is the first window's opening time; the updates read before
	// the first one stamped at or after it are folded into the base RIB
	// state without emitting a window.
	Start time.Time
	// Window is each inference window's duration.
	Window time.Duration
	// Count is the number of windows to emit. Windows past the last
	// update still run (over the then-static live table).
	Count int
	// Mode selects incremental (default) derivation or the re-mine
	// oracle.
	Mode WindowsMode
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
	// Loop replays the trace in cycles of Count windows until Ctx is
	// done. Each cycle ends by rewinding the live table: every slot the
	// cycle's updates touched gets back the route it held when the
	// cycle began, in sorted (peer, prefix) order. The updates from Start
	// are then replayed again. Every cycle's windows therefore equal a
	// fresh run's, counters and meshes alike, but the base dumps are
	// loaded once and a cycle's first window costs only what the cycle
	// changed. Loop needs Ctx and Stream.
	Loop bool
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
	// Rewound counts the live slots a looped replay restored to open
	// this window. It is nonzero only on the first window of a cycle
	// after the first one (see WindowOptions.Loop).
	Rewound int
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
	// including Materialize once it has been called and any wait for the
	// copy of the link map the previous Materialize handed off.
	CloseTime time.Duration
	// Result is the multilateral-peering inference over the window's
	// live view. In incremental mode it is nil until Materialize is
	// called; the maintained counters above need no Result.
	Result *Result

	// miner is the incremental miner that closed this window, in either
	// mode, whose mesh Materialize snapshots unless the re-mine already
	// produced Result, and epoch that miner's close count when it did.
	miner *windowMiner
	epoch int
}

// Materialize returns the window's Result, snapshotting the maintained
// mesh on the first call (exactly one MeshState.Snapshot per window) and
// returning the same pointer on every later one. The snapshot's cost is
// added to CloseTime, so a consumer that materializes before reading
// CloseTime sees the whole cost of producing the window. A window whose
// links moved hands the mesh's link map to its Result, which owns it
// from then on; the mesh's next private copy is built on another
// goroutine, and the next window's close waits for it (its CloseTime
// includes any wait) before the mesh writes a link. It must be
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
		w.Result = w.miner.mesh.Snapshot()
		w.CloseTime += time.Since(t0)
	}
	return w.Result
}

// PassiveWindowsResult is the windowed passive run: one inference per
// time window.
type PassiveWindowsResult struct {
	// Windows holds each window's outcome, materialized, when the default
	// consumer ran; empty when WindowOptions.Stream consumed them.
	Windows []PassiveWindow
}

// RunPassiveWindows is the dynamic counterpart of RunPassive: it replays
// an announce+withdraw update trace over the base RIB dumps, maintaining
// each collector peer's live route table, and re-runs the §4.2 inference
// at every window close over the routes alive at that instant. A
// withdrawal ends its route's lifetime, so transient flaps never leak
// into the inferred mesh — the hygiene property §5 approximates with its
// update-only filter in snapshot mode. Updates are taken in the order
// read from the archive. Once the first update stamped at or after
// opts.Start is read, every update is applied to, and counted in, the
// window open when it is read; its stamp only decides when windows
// close. A late update — stamped inside an already-closed window, or
// before Start — therefore lands in the open window.
//
// The live table (liveTable) interns each prefix once and keeps, per
// prefix, one row of (peer, shape group) slots, and the miner finds a
// route's shape group in one flat map keyed by (path ID, comms ID): a
// base-RIB route costs a probe of the attributor's comms memo, one
// integer-keyed shape probe and a scan of its prefix's row, and each
// RIB record's prefix is hashed once.
// Every event applies as a +/- delta to the incremental relation oracle
// and, once the first close has tallied the live table into it, to the
// refcounted observation store, so a window close after the first costs
// O(changes), not O(live table); remine mode additionally rebuilds
// everything per window and is pinned byte-identical by the equivalence
// tests. Either way each closed window is handed to one consumer,
// opts.Stream, which asks for the mesh with pw.Materialize().
// With opts.Loop the run cycles until opts.Ctx is done, rewinding the
// live table instead of reloading the dumps at each wrap.
func RunPassiveWindows(dumps []*mrt.Dump, updates []*mrt.BGP4MPMessage, dict *Dictionary, opts WindowOptions) (*PassiveWindowsResult, error) {
	if opts.Window <= 0 {
		return nil, fmt.Errorf("core: non-positive window %v", opts.Window)
	}
	if opts.Count <= 0 {
		return nil, fmt.Errorf("core: non-positive window count %d", opts.Count)
	}
	if opts.Loop && (opts.Ctx == nil || opts.Stream == nil) {
		return nil, errors.New("core: a looped replay needs Ctx and Stream")
	}

	store := paths.NewStore()
	miner := newWindowMiner(dict, store, relation.NewIncremental(store))
	// A window's Materialize may leave the mesh's next link map being
	// copied on another goroutine; the replay waits for it before it
	// returns, so no goroutine outlives the replay.
	defer miner.mesh.own()
	// live holds each occupied slot's shape group; miner.set and
	// miner.del write it.
	live := miner.live

	// Base state: the stable RIB dumps.
	if err := loadBase(dumps, miner); err != nil {
		return nil, err
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
	var prevRemineLinks map[bgp.LinkKey][]string
	winIdx := 0
	closeWindow := func() {
		//mlplint:clock close-duration telemetry only; never feeds inference or window boundaries
		t0 := time.Now()
		cur.LiveRoutes = live.n
		miner.closeWindow(&cur)
		if opts.Mode == WindowsRemine {
			remineLiveTable(store, live, dict, &cur)
			cur.MeshLinks = cur.Result.TotalLinks()
			cur.Stability = jaccardLinks(prevRemineLinks, cur.Result.Links)
			prevRemineLinks = cur.Result.Links
		}
		if winIdx == 0 {
			cur.Stability = 1
		}
		cur.CloseTime = time.Since(t0)
		consume(&cur)
		winIdx++
		cur = PassiveWindow{Start: cur.End, End: cur.End.Add(opts.Window)}
	}

	// undo is a looped replay's rewind log: each slot the current cycle
	// touched, mapped to the group it held when the cycle found it (nil
	// when empty); the log itself is nil when not looping.
	var undo map[slotKey]*windowGroup
	touch := func(k slotKey) {
		if undo == nil {
			return
		}
		if _, ok := undo[k]; !ok {
			undo[k] = live.get(k.peer, k.pid)
		}
	}
	// rewind restores every logged slot that moved, in sorted order so
	// the miner sees the same delta sequence on every run, empties the
	// log and returns the number of slots restored. A restored shape is
	// interned again rather than reused: a close that found the logged
	// group dead has dropped it. Both groups come from this run's miner,
	// so equal comms IDs mean equal comms.
	rewind := func() int {
		keys := make([]slotKey, 0, len(undo))
		for k := range undo {
			keys = append(keys, k)
		}
		live.sortSlots(keys)
		restored := 0
		for _, k := range keys {
			was, now := undo[k], live.get(k.peer, k.pid)
			switch {
			case was == nil && now != nil:
				miner.del(k)
			case was != nil && (now == nil || now.path != was.path || now.at.id != was.at.id):
				miner.set(k, miner.shape(was.path, was.at.comms))
			default:
				continue
			}
			restored++
		}
		clear(undo)
		return restored
	}

	apply := func(u *mrt.BGP4MPMessage, count bool) {
		upd, ok := u.Message.(*bgp.Update)
		if !ok {
			return
		}
		for _, p := range upd.Withdrawn {
			// A prefix never announced holds no slot to touch.
			if pid, ok := live.ids[p]; ok {
				k := slotKey{u.PeerASN, pid}
				touch(k)
				miner.del(k)
			}
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
		g := miner.shape(store.InternASPath(upd.Attrs.ASPath), upd.Attrs.Communities)
		for _, p := range upd.NLRI {
			k := slotKey{u.PeerASN, live.intern(p, 0)}
			touch(k)
			miner.set(k, g)
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

	// The updates before the first one at or after Start belong to the
	// base; a looped replay folds them in once and rewinds to here.
	first := 0
	for first < len(updates) && updates[first].Timestamp.Before(opts.Start) {
		apply(updates[first], false)
		first++
	}
	if opts.Loop {
		undo = make(map[slotKey]*windowGroup)
	}

	for {
		for _, u := range updates[first:] {
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
		if !opts.Loop {
			return res, nil
		}
		winIdx = 0
		cur = PassiveWindow{Start: opts.Start, End: opts.Start.Add(opts.Window), Rewound: rewind()}
	}
}

// loadBlock is the number of RIB records in one block of the base load.
const loadBlock = 1024

// ribBlock is one block of a dump's RIB records, d.RIBs[lo:hi].
type ribBlock struct {
	d      *mrt.Dump
	lo, hi int
}

// lastShape is a peer's last attributes block and its shape group.
type lastShape struct {
	attrs *bgp.PathAttrs
	g     *windowGroup
}

// baseLoad is the state of loadBase's two stages.
type baseLoad struct {
	m      *windowMiner
	blocks []ribBlock
	// slots holds, by block parity, one (peer, group) per entry of the
	// block stage A derived last; the group is nil for an entry without
	// attributes.
	slots [2][]liveSlot
	// last is stage A's per-peer cache over the dump it is in.
	last []lastShape
}

// loadBase fills the miner's empty live table from the base RIB dumps,
// in two stages over blocks of loadBlock records. Stage A (derive)
// checks each entry's peer index and finds its shape group. A feeder
// repeats its attributes record after record and ReadDump shares them,
// so each peer keeps its last attributes' group: an entry with the same
// pointer skips the path intern, the attribution and the shape probe.
// No group dies before the first close, so a kept group stays valid.
// Stage B (fill) interns each record's prefix once, its row sized for
// the record's entries, and sets each entry's slot.
//
// Each step is one fork-join that runs stage A on block b+1 beside
// stage B on block b. The two write disjoint state: A the path store,
// the attributor memo, the shape map and relsDeps, and it reads the
// relation oracle, which holds nothing before the first Commit; B the
// live table, the groups' refcounts and byPrefix, pathLive, dying, the
// drop tallies and the oracle's queue. B reads of a group only what A
// fixed at its creation, a step earlier. Each stage walks the blocks in
// order, so path IDs, shapes, the live table and the oracle's queue come
// out as a one-stage loop makes them, at any GOMAXPROCS.
func loadBase(dumps []*mrt.Dump, m *windowMiner) error {
	l := &baseLoad{m: m}
	for _, d := range dumps {
		if d == nil || d.Index == nil {
			continue
		}
		for lo := 0; lo < len(d.RIBs); lo += loadBlock {
			l.blocks = append(l.blocks, ribBlock{d, lo, min(lo+loadBlock, len(d.RIBs))})
		}
	}
	for b := 0; b <= len(l.blocks); b++ {
		var err error
		par.Run(2, func(task int) {
			switch {
			case task == 0 && b < len(l.blocks):
				//mlplint:shared only stage A writes err, and it is read after the join
				err = l.derive(b)
			case task == 1 && b > 0:
				l.fill(b - 1)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// derive is stage A on block b: it fills slots[b%2] with each entry's
// peer and shape group.
func (l *baseLoad) derive(b int) error {
	blk := l.blocks[b]
	peers := blk.d.Index.Peers
	if blk.lo == 0 {
		l.last = make([]lastShape, len(peers)) // a dump's first block
	}
	recs := blk.d.RIBs[blk.lo:blk.hi]
	n := 0
	for _, rib := range recs {
		n += len(rib.Entries)
	}
	out := slices.Grow(l.slots[b%2][:0], n)
	for _, rib := range recs {
		for _, e := range rib.Entries {
			if e.Attrs == nil {
				out = append(out, liveSlot{})
				continue
			}
			if int(e.PeerIndex) >= len(peers) {
				return fmt.Errorf("core: RIB entry for %s names peer %d outside the %d-peer table", rib.Prefix, e.PeerIndex, len(peers))
			}
			c := &l.last[e.PeerIndex]
			if c.attrs != e.Attrs {
				c.attrs, c.g = e.Attrs, l.m.shape(l.m.store.InternASPath(e.Attrs.ASPath), e.Attrs.Communities)
			}
			out = append(out, liveSlot{peers[e.PeerIndex].ASN, c.g})
		}
	}
	l.slots[b%2] = out
	return nil
}

// fill is stage B on block b: it sets the slots stage A derived.
func (l *baseLoad) fill(b int) {
	blk, slots := l.blocks[b], l.slots[b%2]
	for _, rib := range blk.d.RIBs[blk.lo:blk.hi] {
		pid := l.m.live.intern(rib.Prefix, len(rib.Entries))
		for _, s := range slots[:len(rib.Entries)] {
			if s.g != nil {
				l.m.set(slotKey{s.peer, pid}, s.g)
			}
		}
		slots = slots[len(rib.Entries):]
	}
}

// remineLiveTable runs hygiene + community mining + link inference over
// the full live table, deterministically (the table is sorted before
// mining): the re-mine oracle the incremental path is pinned against.
// It reads only each slot's (path, comms) and re-derives every shape in
// a fresh miner with the same grouped derivation and refcounted store,
// so both modes reduce observations identically while the oracle shares
// nothing the incremental derivation computed.
func remineLiveTable(store *paths.Store, live *liveTable, dict *Dictionary, w *PassiveWindow) {
	m := newWindowMiner(dict, store, nil)
	var kept []paths.ID
	for _, k := range live.slots() {
		r := live.get(k.peer, k.pid)
		g := m.shape(r.path, r.at.comms)
		if g.keptPath() && (int(g.path) >= len(m.pathLive) || m.pathLive[g.path] == 0) {
			kept = append(kept, g.path)
		}
		m.apply(g, live.prefixes[k.pid], 1)
	}

	rels := relation.Infer(paths.NewView(store, kept))
	for _, g := range m.relsDeps {
		setter, ok := pinpointSetter(store.Path(g.path), g.at.entry, rels)
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
func jaccardLinks(a, b map[bgp.LinkKey][]string) float64 {
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
