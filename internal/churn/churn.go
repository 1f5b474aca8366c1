// Package churn evolves a generated world through deterministic epochs
// of route dynamics: bilateral session flaps, route-server membership
// joins and leaves, export/import filter edits, and prefix-origin moves
// — the perturbations PARI-style studies show degrade snapshot-based
// multilateral-peering inference. Each epoch is sampled reproducibly
// from the current world state, applied incrementally through
// propagate.Engine.Apply, and diffed into a true announce+withdraw
// BGP4MP stream by the collector's UpdateStream, giving the windowed
// passive pipeline (core.RunPassiveWindows) a dynamic trace with exact
// per-epoch ground truth alongside it.
package churn

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/collector"
	"mlpeering/internal/ixp"
	"mlpeering/internal/propagate"
	"mlpeering/internal/topology"
)

// Config parameterizes the epoch schedule.
type Config struct {
	// Seed drives all sampling; equal seeds over equal worlds give
	// byte-identical schedules and update streams.
	Seed int64
	// Epochs is the number of mutation rounds.
	Epochs int
	// Interval is the wall-clock spacing between epochs (and the
	// natural inference window size). Defaults to 10 minutes.
	Interval time.Duration

	// Per-epoch event counts.
	PeerFlaps         int // bilateral sessions torn down or (re)established
	MembershipChanges int // route-server joins/leaves
	FilterEdits       int // export-policy edits (with re-encoded communities)
	PrefixMoves       int // prefix-origin re-homings
}

// DefaultConfig returns a moderate churn profile.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:              seed,
		Epochs:            6,
		Interval:          10 * time.Minute,
		PeerFlaps:         4,
		MembershipChanges: 3,
		FilterEdits:       4,
		PrefixMoves:       2,
	}
}

// departed remembers a member that left a route server so a later epoch
// can re-join it with its original policy (the flap pattern remote
// peering resellers exhibit).
type departed struct {
	ixp    string
	member bgp.ASN
	export ixp.ExportFilter
	imp    ixp.ExportFilter
	comms  bgp.Communities
}

// downLink remembers a torn-down bilateral session (and its IXP
// attribution) so a later epoch can restore it.
type downLink struct {
	key  topology.LinkKey
	ixps []string
}

// Runner generates and applies the epoch schedule over one world.
type Runner struct {
	cfg    Config
	engine *propagate.Engine
	topo   *topology.Topology

	epoch     int
	departed  []departed
	downLinks []downLink // bilateral sessions currently torn down
}

// NewRunner prepares a churn runner over the engine's world.
func NewRunner(engine *propagate.Engine, cfg Config) *Runner {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Minute
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	return &Runner{cfg: cfg, engine: engine, topo: engine.Topology()}
}

// Config returns the runner's (normalized) configuration.
func (r *Runner) Config() Config { return r.cfg }

// NextDelta samples the next epoch's mutations from the current world
// state. The sampling is a pure function of (seed, epoch, world state),
// so identical runs produce identical schedules.
func (r *Runner) NextDelta() *propagate.Delta {
	rng := rand.New(rand.NewSource(r.cfg.Seed + int64(r.epoch)*7919))
	d := &propagate.Delta{Epoch: r.epoch}
	r.epoch++

	r.samplePeerFlaps(rng, d)
	r.sampleMemberships(rng, d)
	r.sampleFilterEdits(rng, d)
	r.samplePrefixMoves(rng, d)
	return d
}

// samplePeerFlaps alternates tearing down existing bilateral sessions
// and bringing previously flapped ones back up (or lighting new ones
// between IXP co-members). A session torn down in this epoch is never
// restored in the same delta: flaps span at least one inference window,
// so the withdraw and the re-announce land in different windows.
func (r *Runner) samplePeerFlaps(rng *rand.Rand, d *propagate.Delta) {
	for i := 0; i < r.cfg.PeerFlaps; i++ {
		up := i%2 == 1
		if up {
			// Restore a session torn down in an earlier epoch.
			var eligible []int
			for j, dl := range r.downLinks {
				if !linkScheduled(d, dl.key) {
					eligible = append(eligible, j)
				}
			}
			if len(eligible) > 0 {
				j := eligible[rng.Intn(len(eligible))]
				dl := r.downLinks[j]
				r.downLinks = append(r.downLinks[:j], r.downLinks[j+1:]...)
				d.Peers = append(d.Peers, propagate.PeerOp{A: dl.key.A, B: dl.key.B, Add: true, IXPs: dl.ixps})
				continue
			}
			// Nothing to restore: light a new session between random
			// co-members of a random IXP with no existing relationship.
			if op, ok := r.sampleNewSession(rng); ok {
				d.Peers = append(d.Peers, op)
			}
			continue
		}
		links := r.topo.BilateralLinks()
		if len(links) == 0 {
			continue
		}
		l := links[rng.Intn(len(links))]
		key := topology.MakeLinkKey(l.A, l.B)
		if linkScheduled(d, key) {
			continue
		}
		// Capture the IXP attribution before RemovePeerLink drops it.
		var ixps []string
		if names, ok := r.topo.BilateralIXP[key]; ok {
			ixps = append([]string(nil), names...)
		}
		r.downLinks = append(r.downLinks, downLink{key: key, ixps: ixps})
		d.Peers = append(d.Peers, propagate.PeerOp{A: l.A, B: l.B, Add: false})
	}
}

// linkScheduled reports whether the link already has a peer op in this
// delta.
func linkScheduled(d *propagate.Delta, key topology.LinkKey) bool {
	for _, op := range d.Peers {
		if topology.MakeLinkKey(op.A, op.B) == key {
			return true
		}
	}
	return false
}

// sampleNewSession picks two co-members of a random IXP with no
// existing relationship.
func (r *Runner) sampleNewSession(rng *rand.Rand) (propagate.PeerOp, bool) {
	if len(r.topo.IXPs) == 0 {
		return propagate.PeerOp{}, false
	}
	info := r.topo.IXPs[rng.Intn(len(r.topo.IXPs))]
	members := info.SortedMembers()
	if len(members) < 2 {
		return propagate.PeerOp{}, false
	}
	for tries := 0; tries < 8; tries++ {
		a := members[rng.Intn(len(members))]
		b := members[rng.Intn(len(members))]
		if a == b {
			continue
		}
		if _, related := r.topo.RelationshipOf(a, b); related {
			continue
		}
		return propagate.PeerOp{A: a, B: b, Add: true}, true
	}
	return propagate.PeerOp{}, false
}

// sampleMemberships alternates route-server leaves and (re)joins.
func (r *Runner) sampleMemberships(rng *rand.Rand, d *propagate.Delta) {
	for i := 0; i < r.cfg.MembershipChanges; i++ {
		join := i%2 == 1
		if join && len(r.departed) > 0 {
			j := rng.Intn(len(r.departed))
			dep := r.departed[j]
			if !memberScheduled(d, dep.ixp, dep.member) {
				r.departed = append(r.departed[:j], r.departed[j+1:]...)
				d.Members = append(d.Members, propagate.MemberOp{
					IXP: dep.ixp, Member: dep.member, Join: true,
					Export: dep.export, Import: dep.imp, Comms: dep.comms,
				})
			}
			continue
		}
		if join {
			if op, ok := r.sampleFreshJoin(rng, d); ok {
				d.Members = append(d.Members, op)
			}
			continue
		}
		// Leave: a random RS member of a random IXP that can spare one.
		if op, ok := r.sampleLeave(rng, d); ok {
			d.Members = append(d.Members, op)
		}
	}
}

func (r *Runner) sampleLeave(rng *rand.Rand, d *propagate.Delta) (propagate.MemberOp, bool) {
	for tries := 0; tries < 8; tries++ {
		info := r.topo.IXPs[rng.Intn(len(r.topo.IXPs))]
		members := info.SortedRSMembers()
		if len(members) <= 5 {
			continue
		}
		m := members[rng.Intn(len(members))]
		if memberScheduled(d, info.Name, m) {
			continue
		}
		export, ok1 := r.topo.ExportFilter(info.Name, m)
		imp, ok2 := r.topo.ImportFilter(info.Name, m)
		if !ok1 || !ok2 {
			continue
		}
		comms, _ := r.topo.MemberCommunities(info.Name, m)
		r.departed = append(r.departed, departed{
			ixp: info.Name, member: m, export: export, imp: imp, comms: comms,
		})
		return propagate.MemberOp{IXP: info.Name, Member: m, Join: false}, true
	}
	return propagate.MemberOp{}, false
}

// sampleFreshJoin connects an IXP member that never used the route
// server, with an open policy (the common default for new RS sessions).
func (r *Runner) sampleFreshJoin(rng *rand.Rand, d *propagate.Delta) (propagate.MemberOp, bool) {
	for tries := 0; tries < 8; tries++ {
		info := r.topo.IXPs[rng.Intn(len(r.topo.IXPs))]
		var candidates []bgp.ASN
		for _, m := range info.SortedMembers() {
			if !info.IsRSMember(m) {
				candidates = append(candidates, m)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		m := candidates[rng.Intn(len(candidates))]
		if memberScheduled(d, info.Name, m) {
			continue
		}
		open := ixp.OpenFilter()
		comms, err := r.encodeComms(info, m, open)
		if err != nil {
			continue
		}
		return propagate.MemberOp{
			IXP: info.Name, Member: m, Join: true,
			Export: open, Import: ixp.OpenFilter(), Comms: comms,
		}, true
	}
	return propagate.MemberOp{}, false
}

// sampleFilterEdits mutates export policies: mostly adding excludes
// (the §5.5 repeller behaviour spreading), sometimes retracting one.
func (r *Runner) sampleFilterEdits(rng *rand.Rand, d *propagate.Delta) {
	for i := 0; i < r.cfg.FilterEdits; i++ {
		op, ok := r.sampleFilterEdit(rng, d)
		if ok {
			d.Filters = append(d.Filters, op)
		}
	}
}

func (r *Runner) sampleFilterEdit(rng *rand.Rand, d *propagate.Delta) (propagate.FilterOp, bool) {
	for tries := 0; tries < 8; tries++ {
		info := r.topo.IXPs[rng.Intn(len(r.topo.IXPs))]
		members := info.SortedRSMembers()
		if len(members) < 3 {
			continue
		}
		m := members[rng.Intn(len(members))]
		if memberScheduled(d, info.Name, m) {
			continue
		}
		export, ok := r.topo.ExportFilter(info.Name, m)
		if !ok {
			continue
		}
		imp, _ := r.topo.ImportFilter(info.Name, m)
		newExport, changed := mutateFilter(rng, export, imp, m, members)
		if !changed {
			continue
		}
		comms, err := r.encodeComms(info, m, newExport)
		if err != nil {
			continue
		}
		return propagate.FilterOp{
			IXP: info.Name, Member: m,
			Export: newExport, Import: imp, Comms: comms,
		}, true
	}
	return propagate.FilterOp{}, false
}

// mutateFilter toggles one peer in the export policy, constrained so
// the §4.4 invariant (import never more restrictive than export) holds
// with the member's import unchanged: widening the export toward a peer
// is only done when the import already accepts that peer.
func mutateFilter(rng *rand.Rand, export, imp ixp.ExportFilter, self bgp.ASN, members []bgp.ASN) (ixp.ExportFilter, bool) {
	peers := export.PeerList()
	widen := rng.Float64() < 0.4 && len(peers) > 0
	if export.Mode == ixp.ModeAllExcept {
		if widen {
			// Drop an exclude the import already accepts.
			for _, p := range shuffled(rng, peers) {
				if imp.Allows(p) {
					return ixp.NewExportFilter(ixp.ModeAllExcept, without(peers, p)...), true
				}
			}
			return export, false
		}
		// Add an exclude.
		for tries := 0; tries < 6; tries++ {
			p := members[rng.Intn(len(members))]
			if p == self || export.Peers[p] {
				continue
			}
			return ixp.NewExportFilter(ixp.ModeAllExcept, append(append([]bgp.ASN(nil), peers...), p)...), true
		}
		return export, false
	}
	// NONE+INCLUDE: narrowing drops an include (always invariant-safe);
	// widening adds one the import already accepts.
	if !widen && len(peers) > 1 {
		p := peers[rng.Intn(len(peers))]
		return ixp.NewExportFilter(ixp.ModeNoneExcept, without(peers, p)...), true
	}
	for tries := 0; tries < 6; tries++ {
		p := members[rng.Intn(len(members))]
		if p == self || export.Peers[p] || !imp.Allows(p) {
			continue
		}
		return ixp.NewExportFilter(ixp.ModeNoneExcept, append(append([]bgp.ASN(nil), peers...), p)...), true
	}
	return export, false
}

// samplePrefixMoves re-homes prefixes between random ASes.
func (r *Runner) samplePrefixMoves(rng *rand.Rand, d *propagate.Delta) {
	order := r.topo.Order
	for i := 0; i < r.cfg.PrefixMoves; i++ {
		for tries := 0; tries < 8; tries++ {
			from := order[rng.Intn(len(order))]
			src := r.topo.ASes[from]
			if len(src.Prefixes) == 0 {
				continue
			}
			p := src.Prefixes[rng.Intn(len(src.Prefixes))]
			// Skip prefixes already scheduled this epoch.
			dup := false
			for _, op := range d.Prefixes {
				if op.Prefix == p {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			to := order[rng.Intn(len(order))]
			if to == from {
				continue
			}
			d.Prefixes = append(d.Prefixes, propagate.PrefixOp{Prefix: p, From: from, To: to})
			break
		}
	}
}

// encodeComms encodes a filter into the member's on-the-wire community
// set under the IXP's scheme, honouring the operator's omitted-ALL
// habit like the generator does.
func (r *Runner) encodeComms(info *ixp.Info, m bgp.ASN, f ixp.ExportFilter) (bgp.Communities, error) {
	cs, err := f.Communities(&info.Scheme)
	if err != nil {
		return nil, err
	}
	if as := r.topo.ASes[m]; as != nil && as.OmitsDefaultALL && f.Mode == ixp.ModeAllExcept {
		cs = ixp.OmitDefault(cs, info.Scheme)
	}
	return cs, nil
}

// memberScheduled reports whether (ixp, member) already has a
// membership or filter op in this delta.
func memberScheduled(d *propagate.Delta, ixpName string, m bgp.ASN) bool {
	for _, op := range d.Members {
		if op.IXP == ixpName && op.Member == m {
			return true
		}
	}
	for _, op := range d.Filters {
		if op.IXP == ixpName && op.Member == m {
			return true
		}
	}
	return false
}

func without(s []bgp.ASN, x bgp.ASN) []bgp.ASN {
	out := make([]bgp.ASN, 0, len(s))
	for _, v := range s {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}

func shuffled(rng *rand.Rand, s []bgp.ASN) []bgp.ASN {
	out := append([]bgp.ASN(nil), s...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// EpochStats summarizes one applied epoch.
type EpochStats struct {
	Epoch      int
	Ops        int
	DirtyDests int
	// VisibleDests is the part of DirtyDests the update stream walked:
	// the destinations a collector feeder could see change.
	VisibleDests int
	Announced    int // prefix announcements emitted
	Withdrawn    int // prefix withdrawals emitted
	TruthLinks   int // ground-truth reciprocal ML links after the epoch
}

// Trace is the outcome of a full churn run: per-epoch stats and the
// ground-truth reciprocal mesh after each epoch, aligned with the
// inference windows of the update stream written alongside.
type Trace struct {
	Start    time.Time
	Interval time.Duration
	Epochs   []EpochStats
	// Truth[k] is the reciprocal ground-truth ML mesh after epoch k.
	Truth []map[topology.LinkKey]bool
}

// Run generates, applies and streams all configured epochs: for each
// epoch the delta is applied incrementally through Engine.Apply and the
// dirty destinations are diffed into announce/withdraw messages on w
// (an MRT BGP4MP stream). The collector col must observe the runner's
// engine.
func (r *Runner) Run(w io.Writer, col *collector.Collector, start time.Time) (*Trace, error) {
	if col.Engine() != r.engine {
		return nil, fmt.Errorf("churn: collector observes a different engine")
	}
	stream := collector.NewUpdateStream(col)
	tr := &Trace{Start: start, Interval: r.cfg.Interval}
	for k := 0; k < r.cfg.Epochs; k++ {
		d := r.NextDelta()
		dirty, err := r.engine.Apply(d)
		if err != nil {
			return nil, fmt.Errorf("churn: epoch %d: %w", k, err)
		}
		ann, wd, err := stream.WriteEpoch(w, start.Add(time.Duration(k)*r.cfg.Interval), r.cfg.Interval, dirty)
		if err != nil {
			return nil, fmt.Errorf("churn: epoch %d stream: %w", k, err)
		}
		truth := r.topo.AllGroundTruthReciprocalLinks()
		tr.Epochs = append(tr.Epochs, EpochStats{
			Epoch: k, Ops: d.Ops(), DirtyDests: len(dirty), VisibleDests: stream.Visible(),
			Announced: ann, Withdrawn: wd, TruthLinks: len(truth),
		})
		tr.Truth = append(tr.Truth, truth)
	}
	return tr, nil
}

// DescribeDelta renders a delta as a canonical one-line schedule entry,
// used by the determinism and golden tests to pin the epoch schedule.
func DescribeDelta(d *propagate.Delta) string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d:", d.Epoch)
	for _, op := range d.Peers {
		verb := "down"
		if op.Add {
			verb = "up"
		}
		fmt.Fprintf(&b, " peer-%s %s--%s;", verb, op.A, op.B)
	}
	for _, op := range d.Members {
		verb := "leave"
		if op.Join {
			verb = "join"
		}
		fmt.Fprintf(&b, " %s %s@%s;", verb, op.Member, op.IXP)
	}
	for _, op := range d.Filters {
		peers := op.Export.PeerList()
		strs := make([]string, len(peers))
		for i, p := range peers {
			strs[i] = p.String()
		}
		sort.Strings(strs)
		fmt.Fprintf(&b, " filter %s@%s=%s[%s];", op.Member, op.IXP, op.Export.Mode, strings.Join(strs, ","))
	}
	for _, op := range d.Prefixes {
		fmt.Fprintf(&b, " move %s %s->%s;", op.Prefix, op.From, op.To)
	}
	return b.String()
}
