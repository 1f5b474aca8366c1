package churn

import (
	"io"
	"maps"
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/collector"
	"mlpeering/internal/topology"
)

// checkTruthFold runs cfg's schedule over one world and steps the same
// schedule over a twin world. After every epoch the trace's TruthBase
// with its TruthDeltas folded in must equal the twin's freshly scanned
// AllGroundTruthReciprocalLinks, and TruthLinks must be its size. Each
// delta must be strictly ascending and exact: it adds only links the
// mesh lacks and removes only links it holds. An epoch without
// route-server ops must leave the truth alone.
func checkTruthFold(t testing.TB, wcfg topology.Config, cfg Config) {
	t.Helper()
	_, eng := buildWorld(t, wcfg)
	col := collector.New("rrc-churn", eng, nil, 2)
	tr, err := NewRunner(eng, cfg).Run(io.Discard, col, ribDump(t, col), testStart)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Truth != nil {
		t.Fatal("Run filled Trace.Truth")
	}
	if len(tr.TruthDeltas) != cfg.Epochs || len(tr.Epochs) != cfg.Epochs {
		t.Fatalf("%d deltas and %d epoch stats for %d epochs", len(tr.TruthDeltas), len(tr.Epochs), cfg.Epochs)
	}

	twin, twinEng := buildWorld(t, wcfg)
	mesh := make(map[bgp.LinkKey]bool, len(tr.TruthBase))
	for _, l := range tr.TruthBase {
		mesh[l] = true
	}
	if !strictlyAscending(tr.TruthBase) || !maps.Equal(mesh, twin.AllGroundTruthReciprocalLinks()) {
		t.Fatalf("TruthBase (%d links) is not the ascending pre-churn mesh", len(tr.TruthBase))
	}
	r := NewRunner(twinEng, cfg)
	for k := range tr.TruthDeltas {
		d := r.NextDelta()
		if _, err := twinEng.Apply(d); err != nil {
			t.Fatalf("twin epoch %d: %v", k, err)
		}
		td := &tr.TruthDeltas[k]
		if !strictlyAscending(td.Added) || !strictlyAscending(td.Removed) {
			t.Fatalf("epoch %d: delta not strictly ascending", k)
		}
		if len(d.Members)+len(d.Filters) == 0 && len(td.Added)+len(td.Removed) > 0 {
			t.Fatalf("epoch %d: no route-server op, but the truth moved (+%d -%d): %s",
				k, len(td.Added), len(td.Removed), DescribeDelta(d))
		}
		for _, l := range td.Added {
			if mesh[l] {
				t.Fatalf("epoch %d: adds %v, already in the mesh", k, l)
			}
		}
		for _, l := range td.Removed {
			if !mesh[l] {
				t.Fatalf("epoch %d: removes %v, not in the mesh", k, l)
			}
		}
		td.Apply(mesh)
		want := twin.AllGroundTruthReciprocalLinks()
		if !maps.Equal(mesh, want) {
			missing, extra := 0, 0
			for l := range want {
				if !mesh[l] {
					missing++
				}
			}
			for l := range mesh {
				if !want[l] {
					extra++
				}
			}
			t.Fatalf("epoch %d: folded mesh misses %d and adds %d links against a fresh scan; delta %s",
				k, missing, extra, DescribeDelta(d))
		}
		if got := tr.Epochs[k].TruthLinks; got != len(want) {
			t.Fatalf("epoch %d: TruthLinks %d, fresh scan %d", k, got, len(want))
		}
	}
}

func strictlyAscending(ls []bgp.LinkKey) bool {
	for i := 1; i < len(ls); i++ {
		if bgp.CompareLinkKeys(ls[i-1], ls[i]) >= 0 {
			return false
		}
	}
	return true
}

// TestTruthDeltasFold pins the per-epoch truth deltas to a full rescan
// after every epoch of a 12-epoch run, on all five scenarios at test
// scale and, outside -short, on the baseline paper world.
func TestTruthDeltasFold(t *testing.T) {
	cfg := DefaultConfig(20130501)
	cfg.Epochs = 12
	for _, name := range topology.ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			wcfg := topology.TestConfig()
			wcfg.Scenario = name
			checkTruthFold(t, wcfg, cfg)
		})
	}
	t.Run("baseline-scale-1", func(t *testing.T) {
		if testing.Short() {
			t.Skip("paper-scale truth fold skipped in -short mode")
		}
		checkTruthFold(t, topology.DefaultConfig(), cfg)
	})
}

// FuzzTruthDeltas checks the fold against a rescan over test-scale
// worlds of every scenario, under fuzzed churn seeds, epoch counts
// (1–6) and route-server op counts (0–12 joins and leaves, 0–12 filter
// edits per epoch). The seed corpus under testdata/fuzz includes
// epochs with several RS ops at one IXP, where the pairs between two
// touched members must be candidates too.
func FuzzTruthDeltas(f *testing.F) {
	f.Add(uint8(0), int64(20130501), uint8(6), uint8(3), uint8(4))
	names := topology.ScenarioNames()
	f.Fuzz(func(t *testing.T, scenario uint8, seed int64, epochs, members, filters uint8) {
		wcfg := topology.TestConfig()
		wcfg.Scenario = names[int(scenario)%len(names)]
		cfg := DefaultConfig(seed)
		cfg.Epochs = 1 + int(epochs)%6
		cfg.MembershipChanges = int(members) % 13
		cfg.FilterEdits = int(filters) % 13
		checkTruthFold(t, wcfg, cfg)
	})
}
