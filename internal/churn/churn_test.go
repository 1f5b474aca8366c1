package churn

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/collector"
	"mlpeering/internal/mrt"
	"mlpeering/internal/propagate"
	"mlpeering/internal/topology"
)

var testStart = time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)

func buildWorld(t testing.TB, cfg topology.Config) (*topology.Topology, *propagate.Engine) {
	t.Helper()
	topo, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo, propagate.NewEngine(topo, 0)
}

// ribDump archives col's view of its engine's current state and decodes
// it back: the dump Run seeds its update stream from.
func ribDump(t testing.TB, col *collector.Collector) *mrt.Dump {
	t.Helper()
	var buf bytes.Buffer
	if err := col.WriteRIB(&buf, testStart); err != nil {
		t.Fatal(err)
	}
	d, err := mrt.ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRunRefusesForeignDump pins that Run seeds its stream from the dump
// it is given and fails on one it cannot map, before any epoch runs:
// here a dump without a peer table.
func TestRunRefusesForeignDump(t *testing.T) {
	_, eng := buildWorld(t, topology.TestConfig())
	col := collector.New("rrc-churn", eng, nil, 2)
	if _, err := NewRunner(eng, DefaultConfig(1)).Run(&bytes.Buffer{}, col, &mrt.Dump{}, testStart); err == nil || !strings.Contains(err.Error(), "peer table") {
		t.Fatalf("Run with an empty dump: error %v, want the seed's peer-table error", err)
	}
}

// runOnce builds a fresh world and runs a full churn schedule over it,
// returning the schedule description and the raw MRT update bytes.
func runOnce(t testing.TB, seed int64) (string, []byte, *Trace) {
	t.Helper()
	topo, eng := buildWorld(t, topology.TestConfig())
	cfg := DefaultConfig(seed)
	cfg.Epochs = 4
	r := NewRunner(eng, cfg)
	col := collector.New("rrc-churn", eng, nil, 2)

	// Capture the schedule by regenerating it on a twin runner over a
	// twin world: NextDelta consumes shared state, so the description
	// comes from a separate pass that must (and does) agree.
	topo2, eng2 := buildWorld(t, topology.TestConfig())
	r2 := NewRunner(eng2, cfg)
	var sched strings.Builder
	for k := 0; k < cfg.Epochs; k++ {
		d := r2.NextDelta()
		sched.WriteString(DescribeDelta(d))
		sched.WriteByte('\n')
		if _, err := eng2.Apply(d); err != nil {
			t.Fatalf("twin epoch %d: %v", k, err)
		}
	}
	_ = topo2

	var buf bytes.Buffer
	tr, err := r.Run(&buf, col, ribDump(t, col), testStart)
	if err != nil {
		t.Fatal(err)
	}
	_ = topo
	return sched.String(), buf.Bytes(), tr
}

// TestScheduleAndStreamDeterministic pins the golden property: the same
// seed over the same world yields a byte-identical epoch schedule and a
// byte-identical MRT update stream.
func TestScheduleAndStreamDeterministic(t *testing.T) {
	sched1, bytes1, tr1 := runOnce(t, 99)
	sched2, bytes2, tr2 := runOnce(t, 99)
	if sched1 != sched2 {
		t.Fatalf("schedules diverge:\n%s\n---\n%s", sched1, sched2)
	}
	if !bytes.Equal(bytes1, bytes2) {
		t.Fatalf("MRT streams diverge: %x vs %x", sha256.Sum256(bytes1), sha256.Sum256(bytes2))
	}
	if len(tr1.Epochs) != len(tr2.Epochs) {
		t.Fatalf("trace lengths diverge")
	}
	for k := range tr1.Epochs {
		if tr1.Epochs[k] != tr2.Epochs[k] {
			t.Fatalf("epoch %d stats diverge: %+v vs %+v", k, tr1.Epochs[k], tr2.Epochs[k])
		}
	}
	// A different seed must actually churn differently.
	sched3, _, _ := runOnce(t, 100)
	if sched1 == sched3 {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestStreamIndependentOfGOMAXPROCS pins that the update stream's bytes
// do not depend on the width of the pool its epoch sweeps run on, which
// is GOMAXPROCS. The churn is heavy enough that an epoch's sweep spans
// more than one window, so the double-buffered path runs too.
func TestStreamIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := DefaultConfig(99)
	cfg.Epochs = 3
	cfg.PeerFlaps, cfg.MembershipChanges, cfg.FilterEdits = 40, 30, 40
	var want []byte
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		_, eng := buildWorld(t, topology.TestConfig())
		col := collector.New("rrc-churn", eng, nil, 0)
		var buf bytes.Buffer
		tr, err := NewRunner(eng, cfg).Run(&buf, col, ribDump(t, col), testStart)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			if slices.IndexFunc(tr.Epochs, func(ep EpochStats) bool { return ep.VisibleDests > 256 }) < 0 {
				t.Fatalf("no epoch's sweep spans two windows: %+v", tr.Epochs)
			}
		} else if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("update stream at GOMAXPROCS %d (%x) differs from GOMAXPROCS 1 (%x)", procs, sha256.Sum256(buf.Bytes()), sha256.Sum256(want))
		}
	}
}

// TestStreamCarriesWithdrawals verifies the per-epoch diff emits true
// announce+withdraw sequences with sane shape: monotone timestamps per
// epoch window, withdrawn-only updates present, and counts matching the
// trace stats.
func TestStreamCarriesWithdrawals(t *testing.T) {
	_, raw, tr := runOnce(t, 5)
	ups, err := mrt.ReadUpdates(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) == 0 {
		t.Fatal("no updates")
	}
	var ann, wd, wdOnly int
	last := time.Time{}
	for _, u := range ups {
		if u.Timestamp.Before(last) {
			t.Fatalf("timestamps regress: %v after %v", u.Timestamp, last)
		}
		last = u.Timestamp
		upd, ok := u.Message.(*bgp.Update)
		if !ok {
			t.Fatalf("unexpected message %T", u.Message)
		}
		ann += len(upd.NLRI)
		wd += len(upd.Withdrawn)
		if len(upd.NLRI) == 0 && len(upd.Withdrawn) > 0 {
			if upd.Attrs != nil {
				t.Fatal("withdrawn-only update carries attributes")
			}
			wdOnly++
		}
	}
	if wd == 0 || wdOnly == 0 {
		t.Fatalf("stream has no withdrawals (wd=%d, wdOnly=%d)", wd, wdOnly)
	}
	var wantAnn, wantWd int
	for _, e := range tr.Epochs {
		wantAnn += e.Announced
		wantWd += e.Withdrawn
	}
	if ann != wantAnn || wd != wantWd {
		t.Fatalf("stream counts (%d ann, %d wd) disagree with trace (%d, %d)", ann, wd, wantAnn, wantWd)
	}
	// Every epoch's messages must land inside its window.
	for _, u := range ups {
		off := u.Timestamp.Sub(testStart)
		k := int(off / tr.Interval)
		if k < 0 || k >= len(tr.Epochs) {
			t.Fatalf("message at %v outside all epoch windows", u.Timestamp)
		}
	}
}

// TestPeerFlapsSpanEpochs guards against self-cancelling flaps: a
// session torn down in an epoch must never be restored inside the same
// delta, and teardowns must actually change the world — while some
// later epoch restores an earlier teardown.
func TestPeerFlapsSpanEpochs(t *testing.T) {
	topo, eng := buildWorld(t, topology.TestConfig())
	cfg := DefaultConfig(3)
	cfg.Epochs = 6
	r := NewRunner(eng, cfg)

	initial := make(map[bgp.LinkKey]bool)
	for _, l := range topo.BilateralLinks() {
		initial[bgp.MakeLinkKey(l.A, l.B)] = true
	}
	downed := make(map[bgp.LinkKey]int) // link -> epoch torn down
	restoredAcross := false
	for k := 0; k < cfg.Epochs; k++ {
		d := r.NextDelta()
		seen := make(map[bgp.LinkKey]int)
		for _, op := range d.Peers {
			key := bgp.MakeLinkKey(op.A, op.B)
			seen[key]++
			if seen[key] > 1 {
				t.Fatalf("epoch %d: link %v scheduled twice (self-cancelling flap)", k, key)
			}
			if op.Add {
				if when, ok := downed[key]; ok {
					if when == k {
						t.Fatalf("epoch %d: link %v restored in its teardown epoch", k, key)
					}
					restoredAcross = true
					delete(downed, key)
				}
			} else {
				downed[key] = k
			}
		}
		if _, err := eng.Apply(d); err != nil {
			t.Fatalf("epoch %d: %v", k, err)
		}
		// Torn-down links must really be gone from the world.
		for key := range downed {
			if topo.ASes[key.A].HasPeer(key.B) {
				t.Fatalf("epoch %d: link %v still up after teardown", k, key)
			}
		}
	}
	if len(downed) == 0 {
		t.Fatal("no link stayed down across an epoch boundary")
	}
	if !restoredAcross {
		t.Fatal("no teardown was ever restored in a later epoch")
	}
}

// TestChurnDirtySetsTightened drives the real churn schedule and checks
// the bitset-tightened dirty rule epoch by epoch: every dirty
// destination stays inside the old conservative bound (cones of the
// delta's endpoints plus, for RS ops, every co-member's cone), and at
// least one epoch with RS churn comes in strictly below it.
func TestChurnDirtySetsTightened(t *testing.T) {
	topo, eng := buildWorld(t, topology.TestConfig())
	cfg := DefaultConfig(29)
	cfg.Epochs = 6
	r := NewRunner(eng, cfg)

	var coneInto func(a bgp.ASN, into map[bgp.ASN]bool)
	coneInto = func(a bgp.ASN, into map[bgp.ASN]bool) {
		if into[a] {
			return
		}
		into[a] = true
		if as := topo.ASes[a]; as != nil {
			for _, c := range as.Customers {
				coneInto(c, into)
			}
			for _, s := range as.Siblings {
				coneInto(s, into)
			}
		}
	}

	shrank := false
	for k := 0; k < cfg.Epochs; k++ {
		d := r.NextDelta()
		// Conservative bound, computed against the pre-apply world (RS
		// membership as the old rule read it).
		bound := make(map[bgp.ASN]bool)
		rsChurn := false
		for _, op := range d.Peers {
			coneInto(op.A, bound)
			coneInto(op.B, bound)
		}
		for _, op := range d.Members {
			rsChurn = true
			coneInto(op.Member, bound)
			if info := topo.IXPByName(op.IXP); info != nil {
				for _, m := range info.SortedRSMembers() {
					coneInto(m, bound)
				}
			}
		}
		for _, op := range d.Filters {
			rsChurn = true
			coneInto(op.Member, bound)
			if info := topo.IXPByName(op.IXP); info != nil {
				for _, m := range info.SortedRSMembers() {
					coneInto(m, bound)
				}
			}
		}
		for _, op := range d.Prefixes {
			bound[op.From] = true
			bound[op.To] = true
		}

		dirty, err := eng.Apply(d)
		if err != nil {
			t.Fatalf("epoch %d: %v", k, err)
		}
		for _, dst := range dirty {
			if !bound[dst] {
				t.Fatalf("epoch %d: dirty destination %s outside the conservative bound", k, dst)
			}
		}
		if rsChurn && len(dirty) < len(bound) {
			shrank = true
		}
	}
	if !shrank {
		t.Fatal("no RS-churn epoch shrank the conservative bound; tightening is inert")
	}
}

// TestChurnEquivalenceTestScale drives the real churn schedule and pins
// the incrementally patched engine to a fresh rebuild after every epoch,
// over every destination.
func TestChurnEquivalenceTestScale(t *testing.T) {
	topo, eng := buildWorld(t, topology.TestConfig())
	cfg := DefaultConfig(17)
	cfg.Epochs = 3
	r := NewRunner(eng, cfg)

	// Warm every destination.
	for _, d := range topo.Order {
		eng.Tree(d)
	}
	var a, b []byte
	for k := 0; k < cfg.Epochs; k++ {
		d := r.NextDelta()
		if _, err := eng.Apply(d); err != nil {
			t.Fatalf("epoch %d: %v", k, err)
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("epoch %d: invalid world: %v", k, err)
		}
		fresh := propagate.NewEngine(topo, 0)
		for _, dst := range topo.Order {
			a = eng.Tree(dst).AppendState(a[:0])
			b = fresh.Tree(dst).AppendState(b[:0])
			if !bytes.Equal(a, b) {
				t.Fatalf("epoch %d: tree for %s diverges", k, dst)
			}
		}
	}
}

// TestChurnEquivalenceScale10 repeats the equivalence check on the
// scaled-world@Scale-10 topology (33 IXPs, ~16k ASes): the cache is
// warmed with a deterministic destination sample, three churn epochs are
// applied incrementally, and every sampled tree — retained or
// recomputed — must match a freshly built engine.
func TestChurnEquivalenceScale10(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled world equivalence skipped in -short mode")
	}
	cfg := topology.DefaultConfig()
	cfg.Scenario = "scaled-world"
	cfg.Scale = 10
	topo, eng := buildWorld(t, cfg)

	// Deterministic sample: every 16th destination.
	var sample []bgp.ASN
	for i := 0; i < len(topo.Order); i += 16 {
		sample = append(sample, topo.Order[i])
	}
	for _, d := range sample {
		eng.Tree(d)
	}

	ccfg := DefaultConfig(23)
	ccfg.Epochs = 3
	r := NewRunner(eng, ccfg)
	var a, b []byte
	for k := 0; k < ccfg.Epochs; k++ {
		d := r.NextDelta()
		if _, err := eng.Apply(d); err != nil {
			t.Fatalf("epoch %d: %v", k, err)
		}
		fresh := propagate.NewEngine(topo, 0)
		for _, dst := range sample {
			a = eng.Tree(dst).AppendState(a[:0])
			b = fresh.Tree(dst).AppendState(b[:0])
			if !bytes.Equal(a, b) {
				t.Fatalf("epoch %d: tree for %s diverges", k, dst)
			}
		}
	}
}
