// Package mlpeering_test holds the benchmark harness: one benchmark per
// table and figure of the paper (regenerating the result each
// iteration), the §4.3 ablations called out in DESIGN.md, and component
// micro-benchmarks for the substrates.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package mlpeering_test

import (
	"bytes"
	"context"
	"maps"
	"net/netip"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/churn"
	"mlpeering/internal/collector"
	"mlpeering/internal/core"
	"mlpeering/internal/experiments"
	"mlpeering/internal/mrt"
	"mlpeering/internal/pipeline"
	"mlpeering/internal/propagate"
	"mlpeering/internal/serve"
	"mlpeering/internal/topology"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
	benchErr  error
)

func fixture(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchCtx, benchErr = experiments.NewContext(topology.TestConfig())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCtx
}

// --- Per-table / per-figure benchmarks -------------------------------

func BenchmarkTable2PerIXPInference(b *testing.B) {
	c := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.Table2()
		if r.TotalLinks == 0 {
			b.Fatal("no links")
		}
	}
	r := c.Table2()
	b.ReportMetric(float64(r.TotalLinks), "links")
	b.ReportMetric(float64(r.MultiIXP), "multi-ixp-links")
}

func BenchmarkTable3Validation(b *testing.B) {
	c := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := c.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if r.Tested == 0 {
			b.Fatal("nothing tested")
		}
	}
	r, _ := c.Table3()
	b.ReportMetric(r.ConfirmedFrac*100, "confirmed-%")
}

func BenchmarkFig1SessionScaling(b *testing.B) {
	c := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(c.Figure1().Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig5PrefixCCDF(b *testing.B) {
	c := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.Figure5("")
		if r.Prefixes == 0 {
			b.Fatal("no prefixes")
		}
	}
	b.ReportMetric(fixtureFig5(c)*100, "multi-member-%")
}

func fixtureFig5(c *experiments.Context) float64 { return c.Figure5("").MultiMemberFrac }

func BenchmarkFig6Visibility(b *testing.B) {
	c := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.Figure6()
		if r.TotalMLPLinks == 0 {
			b.Fatal("no links")
		}
	}
	r := c.Figure6()
	b.ReportMetric(r.InvisibleFrac*100, "invisible-%")
}

func BenchmarkFig7CustomerDegrees(b *testing.B) {
	c := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.Figure7()
		if r.Links == 0 {
			b.Fatal("no links")
		}
	}
	r := c.Figure7()
	b.ReportMetric(r.InvolvesStubFrac*100, "involves-stub-%")
}

func BenchmarkFig8LGComparison(b *testing.B) {
	c := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Figure8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9PolicyParticipation(b *testing.B) {
	c := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(c.Figure9().Participation) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig10PresenceMatrix(b *testing.B) {
	c := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Figure10().ASes == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig11FilterBimodality(b *testing.B) {
	c := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(c.Figure11().Means) == 0 {
			b.Fatal("empty")
		}
	}
	b.ReportMetric(c.Figure11().BimodalFrac*100, "bimodal-%")
}

func BenchmarkFig12PeeringDensity(b *testing.B) {
	c := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(c.Figure12().Rows) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig13Repellers(b *testing.B) {
	c := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Figure13().TotalExcludes == 0 {
			b.Fatal("empty")
		}
	}
	b.ReportMetric(c.Figure13().ConeFrac*100, "cone-%")
}

func BenchmarkQueryCostOptimization(b *testing.B) {
	c := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := c.QueryCost()
		if err != nil {
			b.Fatal(err)
		}
		if r.Optimized == 0 {
			b.Fatal("no cost")
		}
	}
	r, _ := c.QueryCost()
	b.ReportMetric(r.NaiveFactor, "naive/optimized")
}

func BenchmarkReciprocityValidation(b *testing.B) {
	c := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := c.Reciprocity("")
		if err != nil {
			b.Fatal(err)
		}
		if r.Violations != 0 {
			b.Fatal("violations")
		}
	}
}

func BenchmarkGlobalEstimate(b *testing.B) {
	c := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.GlobalEstimate().GlobalLinks == 0 {
			b.Fatal("empty")
		}
	}
}

// --- Ablations (DESIGN.md §5) -----------------------------------------

func activeVariant(b *testing.B, mutate func(*core.ActiveConfig)) int {
	c := fixture(b)
	cfg := core.DefaultActiveConfig()
	mutate(&cfg)
	hints := make(map[bgp.ASN][]bgp.Prefix)
	for p, origin := range c.Run.Passive.PrefixOrigins {
		hints[origin] = append(hints[origin], p)
	}
	r, err := core.RunActive(context.Background(), c.Run.Dict, c.World.LGEndpoints(0),
		c.Run.Passive.Obs, hints, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return r.TotalQueries()
}

func BenchmarkAblationPrefixSelection(b *testing.B) {
	var with, without int
	for i := 0; i < b.N; i++ {
		with = activeVariant(b, func(c *core.ActiveConfig) {})
		without = activeVariant(b, func(c *core.ActiveConfig) { c.SortByMultiplicity = false })
	}
	b.ReportMetric(float64(with), "queries-sorted")
	b.ReportMetric(float64(without), "queries-unsorted")
}

func BenchmarkAblationPassiveExclusion(b *testing.B) {
	var with, without int
	for i := 0; i < b.N; i++ {
		with = activeVariant(b, func(c *core.ActiveConfig) {})
		without = activeVariant(b, func(c *core.ActiveConfig) { c.SkipPassiveCovered = false })
	}
	b.ReportMetric(float64(with), "queries-eq2")
	b.ReportMetric(float64(without), "queries-eq1")
}

func BenchmarkAblationSamplingRate(b *testing.B) {
	var q10, q100 int
	for i := 0; i < b.N; i++ {
		q10 = activeVariant(b, func(c *core.ActiveConfig) {})
		q100 = activeVariant(b, func(c *core.ActiveConfig) { c.SamplePct = 1.0; c.MaxPrefixesPerMember = 1 << 30 })
	}
	b.ReportMetric(float64(q10), "queries-10pct")
	b.ReportMetric(float64(q100), "queries-100pct")
}

func BenchmarkAblationReciprocity(b *testing.B) {
	// Reciprocity (AND) versus a permissive OR rule: how much recall the
	// conservative rule costs and how much precision it buys.
	c := fixture(b)
	truth := c.World.Topo.AllGroundTruthMLPLinks()
	var andTP, andFP, orTP, orFP int
	for i := 0; i < b.N; i++ {
		andTP, andFP, orTP, orFP = 0, 0, 0, 0
		// AND rule: the shipped result.
		for link := range c.Run.Result.Links {
			if truth[link] {
				andTP++
			} else {
				andFP++
			}
		}
		// OR rule: link when either side allows the other.
		seen := make(map[topology.LinkKey]bool)
		for name, x := range c.Run.Result.PerIXP {
			_ = name
			covered := x.CoveredMembers()
			for i2, a := range covered {
				fa := x.Filters[a]
				for _, bb := range covered[i2+1:] {
					fb := x.Filters[bb]
					if fa.Allows(bb) || fb.Allows(a) {
						seen[topology.MakeLinkKey(a, bb)] = true
					}
				}
			}
		}
		for link := range seen {
			if truth[link] {
				orTP++
			} else {
				orFP++
			}
		}
	}
	b.ReportMetric(float64(andTP)/float64(andTP+andFP)*100, "AND-precision-%")
	b.ReportMetric(float64(orTP)/float64(orTP+orFP)*100, "OR-precision-%")
	b.ReportMetric(float64(orTP-andTP), "OR-extra-true-links")
}

// --- Component micro-benchmarks ---------------------------------------

func benchUpdate() *bgp.Update {
	return &bgp.Update{
		Attrs: &bgp.PathAttrs{
			Origin:  bgp.OriginIGP,
			ASPath:  bgp.NewASPath(11666, 3356, 6695, 196615, 8359),
			NextHop: netip.MustParseAddr("80.81.192.1"),
			Communities: bgp.Communities{
				bgp.MakeCommunity(6695, 6695), bgp.MakeCommunity(0, 5410),
				bgp.MakeCommunity(0, 8732), bgp.MakeCommunity(3356, 70),
			},
		},
		NLRI: []bgp.Prefix{bgp.MustPrefix("193.0.0.0/21"), bgp.MustPrefix("193.0.22.0/23")},
	}
}

func BenchmarkBGPUpdateEncode(b *testing.B) {
	u := benchUpdate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bgp.Encode(u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBGPUpdateDecode(b *testing.B) {
	wire, err := bgp.Encode(benchUpdate())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bgp.Decode(wire, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMRTRIBDumpWriteRead(b *testing.B) {
	c := fixture(b)
	col := collector.New("bench", c.World.Engine, nil, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := col.WriteRIB(&buf, time.Unix(1368000000, 0)); err != nil {
			b.Fatal(err)
		}
		dump, err := mrt.ReadDump(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if len(dump.RIBs) == 0 {
			b.Fatal("empty dump")
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkTopologyGenerate(b *testing.B) {
	// The world generator, named the next bottleneck after the flat
	// propagation engine: test scale (~0.12x paper).
	cfg := topology.TestConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo, err := topology.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(topo.Order) == 0 {
			b.Fatal("empty world")
		}
	}
}

func BenchmarkTopologyGenerateScaled(b *testing.B) {
	// The 10-100x scaling target's unit of account: the scaled-world
	// scenario at Scale 10 (33 IXPs, ~16k ASes, ~6.3k IXP members),
	// sequential versus the per-IXP worker pool. Both produce the
	// bit-identical world (TestParallelGenerationBitIdentical).
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := topology.DefaultConfig()
			cfg.Scenario = "scaled-world"
			cfg.Scale = 10
			cfg.Workers = bc.workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				topo, err := topology.Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(topo.Order) == 0 {
					b.Fatal("empty world")
				}
			}
		})
	}
}

func BenchmarkTopologyGeneratePaperScale(b *testing.B) {
	// Paper scale (~4.7k ASes, 1.7k IXP members), the pre-PR-3 unit of
	// account, kept for perf-log continuity.
	cfg := topology.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo, err := topology.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(topo.Order) == 0 {
			b.Fatal("empty world")
		}
	}
}

func BenchmarkPassiveInference(b *testing.B) {
	// RunPassive over the fixture's archives: exercises the interned
	// path store (dedup, hygiene-per-distinct-path, columnar records).
	c := fixture(b)
	dict, err := c.World.Dictionary()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunPassive(c.World.Dumps, c.World.Updates, dict)
		if err != nil {
			b.Fatal(err)
		}
		if res.Paths.Len() == 0 {
			b.Fatal("no paths")
		}
	}
}

func BenchmarkPropagationTree(b *testing.B) {
	c := fixture(b)
	topo := c.World.Topo
	engine := propagate.NewEngine(topo, 1) // cache size 1: recompute each time
	dests := topo.Order
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := engine.Tree(dests[i%len(dests)])
		if tr == nil {
			b.Fatal("nil tree")
		}
	}
}

func BenchmarkAvailableRoutes(b *testing.B) {
	// The all-paths LG enumeration, plain vs arena-backed: the arena
	// variant is what ASBackend.Lookup drives.
	c := fixture(b)
	topo := c.World.Topo
	engine := c.World.Engine
	vantages := topo.ValidationLGs
	dests := topo.Order
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := engine.Tree(dests[i%len(dests)])
			_ = tr.AvailableRoutesFrom(vantages[i%len(vantages)].ASN)
		}
	})
	b.Run("arena", func(b *testing.B) {
		b.ReportAllocs()
		var arena propagate.RouteArena
		var buf []*propagate.VantageRoute
		for i := 0; i < b.N; i++ {
			tr := engine.Tree(dests[i%len(dests)])
			arena.Reset()
			buf = tr.AvailableRoutesFromArena(vantages[i%len(vantages)].ASN, &arena, buf)
		}
	})
}

func BenchmarkChurnEpoch(b *testing.B) {
	// One route-churn epoch over scaled-world@Scale-10 (33 IXPs, ~16k
	// ASes): mutate the world, then serve a fixed warm destination
	// sample. "incremental" patches the engine with Engine.Apply and
	// recomputes only invalidated trees; "full-rebuild" discards the
	// engine and rebuilds with NewEngine every epoch — the baseline the
	// incremental path must beat.
	cfg := topology.DefaultConfig()
	cfg.Scenario = "scaled-world"
	cfg.Scale = 10
	for _, bc := range []struct {
		name        string
		incremental bool
	}{
		{"incremental", true},
		{"full-rebuild", false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			topo, err := topology.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			eng := propagate.NewEngine(topo, len(topo.Order))
			var warm []bgp.ASN
			for i := 0; i < len(topo.Order); i += 32 {
				warm = append(warm, topo.Order[i])
			}
			for _, d := range warm {
				eng.Tree(d)
			}
			runner := churn.NewRunner(eng, churn.DefaultConfig(20130501))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				delta := runner.NextDelta()
				if bc.incremental {
					if _, err := eng.Apply(delta); err != nil {
						b.Fatal(err)
					}
				} else {
					if err := delta.ApplyToTopology(topo); err != nil {
						b.Fatal(err)
					}
					eng = propagate.NewEngine(topo, len(topo.Order))
				}
				for _, d := range warm {
					if eng.Tree(d) == nil {
						b.Fatal("nil tree")
					}
				}
			}
		})
	}
}

func BenchmarkChurnTraceBuild(b *testing.B) {
	// The update-trace build at paper scale (Scale 1, 4,721 ASes): the
	// feeder snapshot plus 12 one-minute churn epochs of Engine.Apply,
	// UpdateStream.WriteEpoch and the ground-truth mesh — set-up of three
	// of the four repo benchmark workloads and lgserve's cold start.
	// The world is rebuilt untimed each iteration (Run mutates it).
	// WriteEpoch walks visible-dests trees through the pooled parallel
	// subset walk, not dirty-dests (both summed over the 12 epochs).
	ccfg := churn.DefaultConfig(20130501)
	ccfg.Epochs, ccfg.Interval = 12, time.Minute
	var dirty, visible int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		topo, err := topology.Generate(topology.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		eng := propagate.NewEngine(topo, 0)
		col := collector.New("rrc-churn", eng, nil, 4)
		runner := churn.NewRunner(eng, ccfg)
		var buf bytes.Buffer
		b.StartTimer()
		trace, err := runner.Run(&buf, col, pipeline.Timestamp.Add(2*time.Hour))
		if err != nil {
			b.Fatal(err)
		}
		for _, ep := range trace.Epochs {
			dirty += ep.DirtyDests
			visible += ep.VisibleDests
		}
	}
	b.ReportMetric(float64(dirty)/float64(b.N), "dirty-dests/op")
	b.ReportMetric(float64(visible)/float64(b.N), "visible-dests/op")
}

func BenchmarkChurnedPublish(b *testing.B) {
	// Update-in to queryable-epoch-out on the paper world (Scale 1): one
	// replay cycle of the 12 x 1-minute churn trace, every window closed,
	// materialized and published as a serve.Snapshot the way the gateway's
	// reconciler does it. The three columns are the stages of a churned
	// window's publish (window 0, the base-RIB load, is left out): the
	// bare incremental close, MeshState.Snapshot, and NewSnapshot — which
	// patches the previous epoch's link index and encoded link array. A
	// publish that fell back to re-sorting and re-encoding the whole mesh
	// reads ~15 ms in snapshot-ms/op instead of ~2. Each window's chained
	// fingerprint is checked, untimed, against a detached copy of its
	// Result that only a from-scratch walk has touched.
	ccfg := churn.DefaultConfig(20130501)
	ccfg.Epochs, ccfg.Interval = 12, time.Minute
	ct, err := experiments.BuildChurnTrace(topology.DefaultConfig(), ccfg)
	if err != nil {
		b.Fatal(err)
	}
	var closeT, materializeT, snapshotT time.Duration
	churned := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := 0
		err := ct.StreamWindows(core.WindowsIncremental, ct.Epochs, 0, func(pw *core.PassiveWindow) {
			bare := pw.CloseTime
			res := pw.Materialize()
			t0 := time.Now()
			snap := serve.NewSnapshot(uint64(k+1), ct.Scenario, pw, t0)
			if k > 0 {
				closeT += bare
				materializeT += pw.CloseTime - bare
				snapshotT += time.Since(t0)
				churned++
			}
			b.StopTimer()
			detached := &core.Result{PerIXP: res.PerIXP, Links: maps.Clone(res.Links)}
			if fp := detached.Fingerprint(); fp != snap.Fingerprint {
				b.Fatalf("window %d: published fingerprint %016x, from-scratch rebuild %016x", k, snap.Fingerprint, fp)
			}
			b.StartTimer()
			k++
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 / float64(churned) }
	b.ReportMetric(ms(closeT), "close-ms/op")
	b.ReportMetric(ms(materializeT), "materialize-ms/op")
	b.ReportMetric(ms(snapshotT), "snapshot-ms/op")
}

func BenchmarkWindowedInference(b *testing.B) {
	// Windowed inference under churn over scaled-world@Scale-10 (33
	// IXPs, ~16k ASes) with minute-scale windows: the delta-maintained
	// incremental observation store versus the re-mine-per-window
	// fallback, replaying the identical pre-built announce/withdraw
	// trace (both modes produce byte-identical meshes; the equivalence
	// tests pin that). The shared trace build is setup cost, outside
	// the timer.
	cfg := topology.DefaultConfig()
	cfg.Scenario = "scaled-world"
	cfg.Scale = 10
	ccfg := churn.DefaultConfig(20130501)
	ccfg.Epochs = 6
	ccfg.Interval = time.Minute
	ct, err := experiments.BuildChurnTrace(cfg, ccfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		mode core.WindowsMode
	}{
		{"incremental", core.WindowsIncremental},
		{"remine", core.WindowsRemine},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Workers=0 resolves to GOMAXPROCS, so `go test -cpu=1,4,8`
				// produces the close-time scaling table directly.
				res, err := ct.Windows(bc.mode, 0)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Windows) != ccfg.Epochs {
					b.Fatalf("ran %d windows, want %d", len(res.Windows), ccfg.Epochs)
				}
			}
			b.ReportMetric(float64(ccfg.Epochs), "windows/op")
		})
	}
}

func BenchmarkWindowedInferenceShort(b *testing.B) {
	// The bench-regression variant of BenchmarkWindowedInference: the
	// same incremental windowed replay at test scale, fast enough to
	// sample repeatedly in CI.
	ccfg := churn.DefaultConfig(20130501)
	ccfg.Epochs = 4
	ccfg.Interval = time.Minute
	ct, err := experiments.BuildChurnTrace(topology.TestConfig(), ccfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ct.Windows(core.WindowsIncremental, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Windows) != ccfg.Epochs {
			b.Fatalf("ran %d windows, want %d", len(res.Windows), ccfg.Epochs)
		}
	}
}

// horizonEnv reads an integer knob for the long-horizon benchmark.
func horizonEnv(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

func BenchmarkLongHorizonWindows(b *testing.B) {
	// Long-horizon streaming replay: hours of simulated trace under a
	// flap-heavy churn schedule, windows consumed through the Stream
	// callback so no per-window Result is ever materialized. The
	// benchmark reports mean close time for the first and second half of
	// the horizon — O(churn) closes mean the two stay comparable as the
	// replay ages — and asserts a ceiling on live-heap GROWTH between
	// the first and last window close. Both samples see the pre-built
	// trace and the fully-populated miner, so the difference isolates
	// what the replay accumulates: with the dead-shape sweep it stays
	// near zero on any horizon. Knobs: MLP_HORIZON_SCALE,
	// MLP_HORIZON_EPOCHS, MLP_HORIZON_HEAP_MB (growth ceiling).
	cfg := topology.DefaultConfig()
	cfg.Scenario = "scaled-world"
	cfg.Scale = float64(horizonEnv("MLP_HORIZON_SCALE", 5))
	ccfg := churn.DefaultConfig(20130501)
	ccfg.Epochs = horizonEnv("MLP_HORIZON_EPOCHS", 48)
	ccfg.Interval = 5 * time.Minute
	ccfg.PeerFlaps *= 5
	ccfg.PrefixMoves *= 3
	heapMB := horizonEnv("MLP_HORIZON_HEAP_MB", 512)

	ct, err := experiments.BuildChurnTrace(cfg, ccfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var firstHalf, secondHalf float64
	var msFirst, msLast runtime.MemStats
	for i := 0; i < b.N; i++ {
		var closes []time.Duration
		err := ct.StreamWindows(core.WindowsIncremental, 0, 0, func(pw *core.PassiveWindow) {
			if pw.Result != nil {
				b.Fatal("streaming window materialized a Result")
			}
			closes = append(closes, pw.CloseTime)
			// Sample the heap inside the callback, while the miner and
			// its maintained mesh/observation state are still
			// reachable: after StreamWindows returns they are garbage
			// and the samples would only reflect the trace.
			if len(closes) == 1 {
				b.StopTimer()
				runtime.GC()
				runtime.ReadMemStats(&msFirst)
				b.StartTimer()
			}
			if len(closes) == ccfg.Epochs {
				b.StopTimer()
				runtime.GC()
				runtime.ReadMemStats(&msLast)
				b.StartTimer()
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(closes) != ccfg.Epochs {
			b.Fatalf("streamed %d windows, want %d", len(closes), ccfg.Epochs)
		}
		mean := func(ds []time.Duration) float64 {
			var sum time.Duration
			for _, d := range ds {
				sum += d
			}
			return float64(sum.Milliseconds()) / float64(len(ds))
		}
		firstHalf = mean(closes[:len(closes)/2])
		secondHalf = mean(closes[len(closes)/2:])
	}
	b.StopTimer()
	b.ReportMetric(float64(ccfg.Epochs), "windows/op")
	b.ReportMetric(firstHalf, "first-half-close-ms")
	b.ReportMetric(secondHalf, "second-half-close-ms")

	heap := float64(msLast.HeapAlloc) / (1 << 20)
	growth := heap - float64(msFirst.HeapAlloc)/(1<<20)
	b.ReportMetric(heap, "heap-MB")
	b.ReportMetric(growth, "heap-growth-MB")
	if growth > float64(heapMB) {
		b.Fatalf("live heap grew %.0f MB between first and last window close (ceiling %d MB)", growth, heapMB)
	}
}

func BenchmarkFullPipeline(b *testing.B) {
	// End-to-end: world generation through link inference. Expensive;
	// run explicitly with -bench=FullPipeline -benchtime=1x for wall
	// numbers.
	for i := 0; i < b.N; i++ {
		w, err := pipeline.BuildWorld(topology.TestConfig())
		if err != nil {
			b.Fatal(err)
		}
		run, err := w.RunInference(context.Background(), core.DefaultActiveConfig())
		if err != nil {
			b.Fatal(err)
		}
		if run.Result.TotalLinks() == 0 {
			b.Fatal("no links")
		}
		w.Close()
	}
}

// BenchmarkFullPipelinePaper is the one-shot pipeline on the paper's
// world (baseline, Scale 1) with the pass split into its layers:
// build-ms/op is BuildWorld (generation, the one propagation sweep, the
// MRT codec round trip), then batch passive mining, the LG survey and
// link inference. Run with -cpu to see the GOMAXPROCS-wide sweep scale.
func BenchmarkFullPipelinePaper(b *testing.B) {
	ctx := context.Background()
	var build, passive, active, infer time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		w, err := pipeline.BuildWorld(topology.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		build += time.Since(t0)
		if err := w.StartLGs(); err != nil {
			b.Fatal(err)
		}
		dict, err := w.Dictionary()
		if err != nil {
			b.Fatal(err)
		}

		t0 = time.Now()
		pas, err := core.RunPassive(w.Dumps, w.Updates, dict)
		if err != nil {
			b.Fatal(err)
		}
		passive += time.Since(t0)

		hints := make(map[bgp.ASN][]bgp.Prefix)
		for p, origin := range pas.PrefixOrigins {
			hints[origin] = append(hints[origin], p)
		}
		t0 = time.Now()
		act, err := core.RunActive(ctx, dict, w.LGEndpoints(0), pas.Obs, hints, core.DefaultActiveConfig())
		if err != nil {
			b.Fatal(err)
		}
		active += time.Since(t0)

		merged := core.NewObservations()
		merged.Merge(pas.Obs)
		merged.Merge(act.Obs)
		t0 = time.Now()
		res := core.InferLinks(dict, merged)
		infer += time.Since(t0)

		// The paper world's golden outputs (bench/batch.go checks the same).
		if res.TotalLinks() != 186187 || act.TotalQueries() != 4504 {
			b.Fatalf("%d links / %d LG queries, golden is 186187 / 4504", res.TotalLinks(), act.TotalQueries())
		}
		w.Close()
	}
	perOp := func(d time.Duration) float64 { return float64(d) / 1e6 / float64(b.N) }
	b.ReportMetric(perOp(build), "build-ms/op")
	b.ReportMetric(perOp(passive), "passive-ms/op")
	b.ReportMetric(perOp(active), "active-ms/op")
	b.ReportMetric(perOp(infer), "infer-links-ms/op")
}
