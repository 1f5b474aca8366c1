package collector_test

import (
	"bytes"
	"crypto/sha256"
	"testing"
	"time"

	"mlpeering/internal/churn"
	"mlpeering/internal/collector"
	"mlpeering/internal/mrt"
	"mlpeering/internal/propagate"
	"mlpeering/internal/topology"
)

var oracleStart = time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)

// TestStreamMatchesFullDirtyWalk is the stream oracle for the
// visible-set rule and the dump seed: churn.Runner.Run (its baseline
// seeded from the RIB dump, WriteEpoch walking only what a feeder can
// see change) must write the byte-identical MRT stream, with identical
// per-epoch counts, as the same schedule fed through NewUpdateStream's
// swept baseline and a walk of the whole Apply dirty set — on every
// scenario, and on the paper
// world for the benchmark's twelve epochs. It also pins EpochStats:
// VisibleDests never exceeds DirtyDests and is strictly smaller in at
// least one epoch.
func TestStreamMatchesFullDirtyWalk(t *testing.T) {
	type world struct {
		name, scenario string
		scale          float64
		epochs         int
		paper          bool
	}
	worlds := []world{
		{name: "baseline", scale: 0.12, epochs: 6},
		{name: "remote-peering", scenario: "remote-peering", scale: 0.12, epochs: 4},
		{name: "multi-ixp-hybrid", scenario: "multi-ixp-hybrid", scale: 0.12, epochs: 4},
		{name: "pari-noise", scenario: "pari-noise", scale: 0.12, epochs: 4},
		{name: "scaled-world", scenario: "scaled-world", scale: 0.5, epochs: 4},
		{name: "paper", scale: 1, epochs: 12, paper: true},
	}
	for _, wd := range worlds {
		t.Run(wd.name, func(t *testing.T) {
			if wd.paper && testing.Short() {
				t.Skip("paper-scale world in -short mode")
			}
			cfg := topology.TestConfig()
			if wd.paper {
				cfg = topology.DefaultConfig()
			}
			cfg.Scenario, cfg.Scale = wd.scenario, wd.scale
			ccfg := churn.DefaultConfig(cfg.Seed)
			ccfg.Epochs, ccfg.Interval = wd.epochs, time.Minute

			build := func() (*propagate.Engine, *churn.Runner, *collector.Collector) {
				topo, err := topology.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				eng := propagate.NewEngine(topo, 0)
				return eng, churn.NewRunner(eng, ccfg), collector.New("rrc-churn", eng, nil, 4)
			}

			_, runner, col := build()
			var rib bytes.Buffer
			if err := col.WriteRIB(&rib, oracleStart); err != nil {
				t.Fatal(err)
			}
			dump, err := mrt.ReadDump(&rib)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			trace, err := runner.Run(&got, col, dump, oracleStart)
			if err != nil {
				t.Fatal(err)
			}

			eng, runner, col := build()
			stream := collector.NewUpdateStream(col)
			var want bytes.Buffer
			smaller := false
			for k := 0; k < ccfg.Epochs; k++ {
				dirty, err := eng.Apply(runner.NextDelta())
				if err != nil {
					t.Fatal(err)
				}
				ann, wdr, err := stream.WriteEpochAll(&want, oracleStart.Add(time.Duration(k)*ccfg.Interval), ccfg.Interval, dirty)
				if err != nil {
					t.Fatal(err)
				}
				st := trace.Epochs[k]
				if st.DirtyDests != len(dirty) || st.Announced != ann || st.Withdrawn != wdr {
					t.Fatalf("epoch %d: run saw dirty=%d ann=%d wd=%d, full walk dirty=%d ann=%d wd=%d",
						k, st.DirtyDests, st.Announced, st.Withdrawn, len(dirty), ann, wdr)
				}
				if st.VisibleDests > st.DirtyDests {
					t.Fatalf("epoch %d: %d visible of %d dirty", k, st.VisibleDests, st.DirtyDests)
				}
				if st.VisibleDests < st.DirtyDests {
					smaller = true
				}
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("streams diverge: visible walk %d bytes %x, full walk %d bytes %x",
					got.Len(), sha256.Sum256(got.Bytes()), want.Len(), sha256.Sum256(want.Bytes()))
			}
			if got.Len() == 0 {
				t.Fatal("empty update stream; test is vacuous")
			}
			if !smaller {
				t.Fatal("VisibleDests equals DirtyDests in every epoch: the filter dropped nothing")
			}
		})
	}
}
