package serve

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"weak"

	"mlpeering/internal/bgp"
	"mlpeering/internal/churn"
	"mlpeering/internal/core"
	"mlpeering/internal/experiments"
	"mlpeering/internal/mrt"
	"mlpeering/internal/topology"
)

// windowDigest is everything a window publishes, bar its timing: every
// counter, the fingerprint, and the hash of every sampled Render* body.
type windowDigest struct {
	counters string
	fp       uint64
	bodies   map[string][sha256.Size]byte
}

// replaySample is the set of queries a digest renders: every IXP, and
// ASNs and link pairs drawn from a window's mesh (half the pairs are
// not links).
type replaySample struct {
	asns  []bgp.ASN
	pairs [][2]bgp.ASN
}

func sampleQueries(res *core.Result) replaySample {
	links := res.BuildIndex().Links
	var s replaySample
	step := max(1, len(links)/8)
	for i := 0; i < len(links); i += step {
		k := links[i].Key
		s.asns = append(s.asns, k.A, k.B)
		s.pairs = append(s.pairs, [2]bgp.ASN{k.A, k.B})
		if j := (i + step/2 + 1) % len(links); links[j].Key.B != k.A {
			s.pairs = append(s.pairs, [2]bgp.ASN{k.A, links[j].Key.B})
		}
	}
	return s
}

func digestWindow(pw *core.PassiveWindow, q replaySample) windowDigest {
	res := pw.Result
	d := windowDigest{
		counters: fmt.Sprintf("[%v %v) ann=%d wdr=%d wdr-only=%d live=%d dropped=%+v rels=%d p2p=%d mesh=%d stability=%v",
			pw.Start, pw.End, pw.Announced, pw.Withdrawn, pw.WithdrawnOnlyUpdates, pw.LiveRoutes,
			pw.Dropped, pw.RelLinks, pw.P2PRels, pw.MeshLinks, pw.Stability),
		fp:     res.Fingerprint(),
		bodies: make(map[string][sha256.Size]byte),
	}
	add := func(key string, body []byte) { d.bodies[key] = sha256.Sum256(body) }
	add("mesh", RenderMesh(1, d.fp, res))
	add("ixps", RenderIXPList(1, res))
	for name := range res.PerIXP {
		body, _ := RenderIXP(1, res, name)
		add("ixp "+name, body)
	}
	for _, asn := range q.asns {
		add(fmt.Sprintf("as %d", asn), RenderAS(1, res, asn))
	}
	for _, p := range q.pairs {
		add(fmt.Sprintf("link %d-%d", p[0], p[1]), RenderLink(1, res, p[0], p[1]))
	}
	return d
}

// diff names the first way got differs from want, or returns "".
func (got windowDigest) diff(want windowDigest) string {
	if got.counters != want.counters {
		return fmt.Sprintf("counters\n got:  %s\n want: %s", got.counters, want.counters)
	}
	if got.fp != want.fp {
		return fmt.Sprintf("fingerprint %016x, want %016x", got.fp, want.fp)
	}
	keys := make([]string, 0, len(want.bodies))
	for k := range want.bodies {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if got.bodies[k] != want.bodies[k] {
			return k + " body differs"
		}
	}
	if len(got.bodies) != len(want.bodies) {
		return fmt.Sprintf("%d bodies, want %d", len(got.bodies), len(want.bodies))
	}
	return ""
}

// distinctSlots counts the (peer, prefix) slots the updates name.
func distinctSlots(updates []*mrt.BGP4MPMessage) int {
	type slot struct {
		peer   bgp.ASN
		prefix bgp.Prefix
	}
	seen := make(map[slot]bool)
	for _, u := range updates {
		if upd, ok := u.Message.(*bgp.Update); ok {
			for _, p := range upd.Withdrawn {
				seen[slot{u.PeerASN, p}] = true
			}
			for _, p := range upd.NLRI {
				seen[slot{u.PeerASN, p}] = true
			}
		}
	}
	return len(seen)
}

// assertLoopedMatchesFresh replays ct three times round in one looped
// ReplayWindows call and holds every window against the same position
// of one fresh, counted replay. Each wrap must restore some slots, no
// more than the trace names and fewer than the live table holds.
func assertLoopedMatchesFresh(t *testing.T, ct *experiments.ChurnTrace) {
	t.Helper()
	var fresh []windowDigest
	var q replaySample
	err := ct.ReplayWindows(context.Background(), ct.Epochs, 0, func(pw *core.PassiveWindow) {
		if fresh == nil {
			q = sampleQueries(pw.Result)
		}
		fresh = append(fresh, digestWindow(pw, q))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.asns) == 0 {
		t.Fatal("the first window inferred no links; nothing to compare")
	}
	slots := distinctSlots(ct.Updates)

	const cycles = 3
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	err = ct.ReplayWindows(ctx, 0, 0, func(pw *core.PassiveWindow) {
		defer func() { n++ }()
		if n == cycles*ct.Epochs {
			t.Errorf("window %d closed after cancellation", n)
			return
		}
		k := n % ct.Epochs
		if d := digestWindow(pw, q).diff(fresh[k]); d != "" {
			t.Errorf("window %d (cycle %d, position %d): %s", n, n/ct.Epochs, k, d)
		}
		switch {
		case k != 0 || n == 0:
			if pw.Rewound != 0 {
				t.Errorf("window %d: %d slots rewound inside a cycle", n, pw.Rewound)
			}
		case pw.Rewound == 0 || pw.Rewound > slots || pw.Rewound >= pw.LiveRoutes:
			t.Errorf("wrap at window %d rewound %d slots; want 1..%d (the slots the trace names) and < %d live routes",
				n, pw.Rewound, slots, pw.LiveRoutes)
		}
		if n == cycles*ct.Epochs-1 {
			cancel()
		}
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("looped replay returned %v, want context.Canceled", err)
	}
	if n != cycles*ct.Epochs {
		t.Fatalf("looped replay closed %d windows, want %d", n, cycles*ct.Epochs)
	}
}

func buildTrace(t *testing.T, cfg topology.Config, ccfg churn.Config) *experiments.ChurnTrace {
	t.Helper()
	ct, err := experiments.BuildChurnTrace(cfg, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// TestLoopedReplayMatchesFreshCycles pins the rewind: on every scenario,
// each window of three looped cycles equals the same window of a fresh
// replay, counters, fingerprint and bodies alike.
func TestLoopedReplayMatchesFreshCycles(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		scale    float64
	}{
		{"baseline", 0.12}, {"remote-peering", 0.12}, {"multi-ixp-hybrid", 0.12},
		{"pari-noise", 0.12}, {"scaled-world", 0.3},
	} {
		t.Run(tc.scenario, func(t *testing.T) {
			cfg := topology.TestConfig()
			cfg.Scenario, cfg.Scale = tc.scenario, tc.scale
			ccfg := churn.DefaultConfig(20130501)
			ccfg.Epochs = 4
			assertLoopedMatchesFresh(t, buildTrace(t, cfg, ccfg))
		})
	}
}

// TestLoopedReplayMatchesFreshPaperScale repeats the rewind equivalence
// on the paper world with the gateway's 12-epoch cycle.
func TestLoopedReplayMatchesFreshPaperScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-scale replay skipped in -short and under the race detector")
	}
	cfg := topology.DefaultConfig()
	cfg.Scale = 1
	ccfg := churn.DefaultConfig(20130501)
	ccfg.Epochs, ccfg.Interval = 12, time.Minute
	assertLoopedMatchesFresh(t, buildTrace(t, cfg, ccfg))
}

// TestLoopedReplayHeapBounded publishes 1,000 looped windows the way
// the gateway does and requires the live heap at window 1,000 to be
// within 5 % of window 100's: nothing — undo log, per-run slice, shape
// map, index chain — grows with the number of wraps.
func TestLoopedReplayHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("1,000-window replay skipped in -short")
	}
	ccfg := churn.DefaultConfig(20130501)
	ccfg.Epochs = 4
	ct := buildTrace(t, topology.TestConfig(), ccfg)
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n int
	var at100, at1000 uint64
	var last *Snapshot
	err := ct.ReplayWindows(ctx, 0, 0, func(pw *core.PassiveWindow) {
		n++
		last = NewSnapshot(uint64(n), ct.Scenario, pw, time.Time{})
		switch n {
		case 100:
			at100 = heap()
		case 1000:
			at1000 = heap()
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("looped replay returned %v, want context.Canceled", err)
	}
	runtime.KeepAlive(last)
	if growth := float64(at1000)/float64(at100) - 1; growth > 0.05 {
		t.Fatalf("heap grew %.1f%% from window 100 (%d B) to window 1,000 (%d B)", 100*growth, at100, at1000)
	}
}

// TestReplayReleasesDumpsAndTruth pins that the serving loop keeps
// neither the base dumps nor the ground truth: once the first epoch has
// committed and two collections have run, weak pointers to a dump and
// to the backing array of the trace's base truth mesh read nil, while
// the gateway goes on publishing.
func TestReplayReleasesDumpsAndTruth(t *testing.T) {
	ccfg := churn.DefaultConfig(20130501)
	ccfg.Epochs = 3
	ct := buildTrace(t, topology.TestConfig(), ccfg)
	if len(ct.Dumps) == 0 || len(ct.Trace.TruthBase) == 0 {
		t.Fatal("trace has no dumps or no truth")
	}
	dump, truth := weak.Make(ct.Dumps[0]), weak.Make(&ct.Trace.TruthBase[0])
	traces := make(chan *experiments.ChurnTrace, 1)
	traces <- ct
	ct = nil

	g := New(Config{EpochInterval: 5 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- g.replay(ctx, <-traces) }()
	<-g.Ready()
	runtime.GC()
	runtime.GC()
	if dump.Value() != nil {
		t.Error("a base dump is still reachable after the first commit")
	}
	if truth.Value() != nil {
		t.Error("the ground truth is still reachable after the first commit")
	}
	first := g.Current().Epoch
	deadline := time.Now().Add(time.Minute)
	for g.Current().Epoch < first+2*uint64(ccfg.Epochs) {
		if time.Now().After(deadline) {
			t.Fatalf("stuck at epoch %d", g.Current().Epoch)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("replay returned %v after cancel, want nil", err)
	}
}

// TestReplayWrapContract pins what a client sees when the replay wraps
// (the ChurnTrace.ReplayWindows contract, README "Serving tier"): epoch
// numbers keep rising; the first epoch of every cycle serves the base
// world again, with epoch 1's fingerprint and Stability 1; and an ETag
// taken before the wrap is answered 200, not 304, after it.
func TestReplayWrapContract(t *testing.T) {
	ccfg := churn.DefaultConfig(20130501)
	ccfg.Epochs = 3
	ct := buildTrace(t, topology.TestConfig(), ccfg)
	const cycles = 3
	E := uint64(ccfg.Epochs)

	// Logf runs on the reconciler right after each publish, so it sees
	// every snapshot, and a request made there sees the epoch it names.
	// At each wrap the request revalidates the tags of epoch 1 (the same
	// mesh) and of the epoch just before the wrap.
	var snaps []*Snapshot
	var wrapStatus []int
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var g *Gateway
	g = New(Config{Logf: func(format string, args ...any) {
		if !strings.HasPrefix(format, "serve: epoch ") {
			return
		}
		s := g.Current()
		if s.Epoch%E == 1 && s.Epoch > 1 {
			inm := snaps[0].ETag + ", " + snaps[len(snaps)-1].ETag
			rr := get(t, g.Handler(), "/v1/epoch", map[string]string{"If-None-Match": inm})
			wrapStatus = append(wrapStatus, rr.Code)
		}
		snaps = append(snaps, s)
		if len(snaps) == cycles*int(E) {
			cancel()
		}
	}})
	if err := g.replay(ctx, ct); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != cycles*int(E) {
		t.Fatalf("published %d epochs, want %d", len(snaps), cycles*E)
	}

	t.Run("epochs keep rising", func(t *testing.T) {
		for i, s := range snaps {
			if s.Epoch != uint64(i+1) {
				t.Fatalf("publish %d carries epoch %d", i, s.Epoch)
			}
		}
	})
	t.Run("cycle start serves the base world", func(t *testing.T) {
		for i, s := range snaps {
			base := snaps[i%int(E)]
			if s.Fingerprint != base.Fingerprint {
				t.Errorf("epoch %d: fingerprint %016x, epoch %d's %016x", s.Epoch, s.Fingerprint, base.Epoch, base.Fingerprint)
			}
			if s.Stats.MeshLinks != base.Stats.MeshLinks || s.Stats.LiveRoutes != base.Stats.LiveRoutes {
				t.Errorf("epoch %d: stats %+v, epoch %d's %+v", s.Epoch, s.Stats, base.Epoch, base.Stats)
			}
		}
	})
	t.Run("cycle start reads stability 1", func(t *testing.T) {
		for _, s := range snaps {
			if s.Epoch%E == 1 && s.Stats.Stability != 1 {
				t.Errorf("epoch %d opens a cycle with stability %v", s.Epoch, s.Stats.Stability)
			}
		}
	})
	t.Run("pre-wrap etag gets 200", func(t *testing.T) {
		if len(wrapStatus) != cycles-1 {
			t.Fatalf("%d wraps revalidated, want %d", len(wrapStatus), cycles-1)
		}
		for i, code := range wrapStatus {
			if code != http.StatusOK {
				t.Errorf("wrap %d: pre-wrap ETags revalidated with %d, want 200", i+1, code)
			}
		}
	})
}

// TestBootNonceSeparatesGateways pins the restart half of the ETag: two
// gateways on one configuration publish the same epochs over the same
// mesh, yet never share a tag, each names its boot in X-MLP-Boot, and a
// tag from one is a 200 at the other (no false 304 across a restart).
func TestBootNonceSeparatesGateways(t *testing.T) {
	_, res := testResult(t)
	a, b := testGateway(t, res), testGateway(t, res)
	ra, rb := get(t, a.Handler(), "/v1/stats", nil), get(t, b.Handler(), "/v1/stats", nil)
	if ra.Body.String() != rb.Body.String() {
		t.Fatal("the two gateways serve different stats bodies; the test needs equal ones")
	}
	tagA, tagB := ra.Header().Get("ETag"), rb.Header().Get("ETag")
	if tagA == tagB {
		t.Fatalf("two gateways share the ETag %s", tagA)
	}
	bootA, bootB := ra.Header().Get("X-MLP-Boot"), rb.Header().Get("X-MLP-Boot")
	if bootA == "" || bootA == bootB || !strings.Contains(tagA, bootA) {
		t.Fatalf("X-MLP-Boot %q / %q does not name the gateway in its tag %s", bootA, bootB, tagA)
	}
	for _, path := range []string{"/v1/epoch", "/v1/stats", "/v1/mesh", "/v1/as/64500"} {
		if rr := get(t, b.Handler(), path, map[string]string{"If-None-Match": tagA}); rr.Code != http.StatusOK {
			t.Errorf("%s: gateway A's tag revalidated at gateway B with %d, want 200", path, rr.Code)
		}
		if rr := get(t, a.Handler(), path, map[string]string{"If-None-Match": tagA}); rr.Code != http.StatusNotModified {
			t.Errorf("%s: gateway A's own tag revalidated with %d, want 304", path, rr.Code)
		}
	}
}
