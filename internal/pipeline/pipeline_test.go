package pipeline

import (
	"context"
	"maps"
	"slices"
	"testing"

	"mlpeering/internal/core"
	"mlpeering/internal/topology"
)

// buildRun generates a world and runs the full pipeline once per test
// binary (it is the expensive fixture every check shares).
var sharedRun *Run
var sharedWorld *World

func fixture(t *testing.T) (*World, *Run) {
	t.Helper()
	if sharedRun != nil {
		return sharedWorld, sharedRun
	}
	w, err := BuildWorld(topology.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	run, err := w.RunInference(context.Background(), core.DefaultActiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	sharedWorld, sharedRun = w, run
	return w, run
}

// reciprocalLinks recomputes an IXP's links from its covered members'
// filters by the reciprocity rule: the per-IXP oracle, blind to the
// Result's attribution map.
func reciprocalLinks(x *core.IXPInference) map[topology.LinkKey]bool {
	out := make(map[topology.LinkKey]bool)
	for i, a := range x.Covered {
		for _, b := range x.Covered[i+1:] {
			if x.Filters[a].Allows(b) && x.Filters[b].Allows(a) {
				out[topology.MakeLinkKey(a, b)] = true
			}
		}
	}
	return out
}

// TestAttributionMatchesReciprocity holds the batch Result's covered
// lists and attribution map against the per-IXP oracle: Covered is the
// sorted filter keys, and each link is attributed to exactly the IXPs
// whose covered filters allow it both ways.
func TestAttributionMatchesReciprocity(t *testing.T) {
	_, run := fixture(t)
	want := make(map[topology.LinkKey][]string)
	for _, name := range slices.Sorted(maps.Keys(run.Result.PerIXP)) {
		x := run.Result.PerIXP[name]
		if !slices.Equal(x.Covered, slices.Sorted(maps.Keys(x.Filters))) {
			t.Fatalf("%s: covered %v is not the sorted filter keys", name, x.Covered)
		}
		for link := range reciprocalLinks(x) {
			want[link] = append(want[link], name)
		}
	}
	if len(want) == 0 {
		t.Fatal("nothing to check")
	}
	if !maps.EqualFunc(run.Result.Links, want, slices.Equal[[]string]) {
		t.Fatalf("attribution map (%d links) differs from the reciprocity oracle (%d links)", len(run.Result.Links), len(want))
	}
}

func TestPipelineProducesLinks(t *testing.T) {
	w, run := fixture(t)
	if run.Result.TotalLinks() == 0 {
		t.Fatal("no links inferred")
	}
	// Every IXP with an LG must reach (nearly) full coverage:
	// pasv + active ≈ RS member count, as in Table 2.
	for _, info := range w.Topo.IXPs {
		x := run.Result.PerIXP[info.Name]
		if x == nil {
			t.Fatalf("%s missing from result", info.Name)
		}
		covered := len(x.Filters)
		if info.HasLG {
			min := len(info.RSMembers) * 8 / 10
			if covered < min {
				t.Errorf("%s: covered %d of %d RS members despite own LG", info.Name, covered, len(info.RSMembers))
			}
		}
		if covered > 5 && len(reciprocalLinks(x)) == 0 {
			t.Errorf("%s: %d covered members but no links", info.Name, covered)
		}
	}
}

func TestInferredLinksAreSoundAgainstGroundTruth(t *testing.T) {
	w, run := fixture(t)
	// Reciprocity is conservative: false positives can only arise from
	// rare passive setter misattribution (case 2 of §4.2 with an
	// incomplete member list), so precision must stay above 99%.
	badLinks := 0
	total := 0
	for _, info := range w.Topo.IXPs {
		truth := w.Topo.GroundTruthMLPLinks(info.Name)
		for link := range reciprocalLinks(run.Result.PerIXP[info.Name]) {
			total++
			if !truth[link] {
				badLinks++
			}
		}
	}
	if total == 0 {
		t.Fatal("nothing to check")
	}
	if frac := float64(badLinks) / float64(total); frac > 0.01 {
		t.Fatalf("%d of %d inferred links are false positives (%.4f)", badLinks, total, frac)
	}
}

func TestRecallAgainstReciprocalTruth(t *testing.T) {
	w, run := fixture(t)
	// For IXPs with full LG coverage, recall against the reciprocal
	// ground truth (what the method can see at best) should be high.
	for _, info := range w.Topo.IXPs {
		if !info.HasLG {
			continue
		}
		truth := w.Topo.GroundTruthReciprocalLinks(info.Name)
		links := reciprocalLinks(run.Result.PerIXP[info.Name])
		found := 0
		for link := range truth {
			if links[link] {
				found++
			}
		}
		if len(truth) == 0 {
			continue
		}
		recall := float64(found) / float64(len(truth))
		if recall < 0.75 {
			t.Errorf("%s: recall %.3f (%d/%d)", info.Name, recall, found, len(truth))
		}
	}
}

func TestPassiveDropsPollution(t *testing.T) {
	_, run := fixture(t)
	d := run.Passive.Dropped
	if d.Bogon == 0 || d.Cycle == 0 || d.Transient == 0 {
		t.Fatalf("pollution not filtered: %+v", d)
	}
}

func TestPassiveCoverageVariesByIXP(t *testing.T) {
	w, run := fixture(t)
	// IXPs with RS feeders have passive coverage; those without have none.
	for _, prof := range topology.PaperIXPProfiles() {
		x := run.Result.PerIXP[prof.Name]
		if x == nil {
			continue
		}
		if prof.RSFeeders == 0 && x.PassiveCount() > len(x.Members)/2 {
			// A stray background feeder can pick up a few community
			// sets even without a dedicated RS feeder, but coverage
			// must stay marginal (Table 2 reports 0 for these IXPs).
			t.Errorf("%s: passive coverage %d without RS feeders", prof.Name, x.PassiveCount())
		}
		if prof.RSFeeders > 0 && prof.PassiveOpenness > 0.3 && x.PassiveCount() == 0 {
			t.Errorf("%s: no passive coverage despite %d RS feeders", prof.Name, prof.RSFeeders)
		}
	}
	_ = w
}

func TestInvisibleLinkFraction(t *testing.T) {
	w, run := fixture(t)
	// The headline claim: the vast majority of inferred MLP links are
	// invisible in public BGP data (88% in the paper).
	public := run.Passive.Links
	invisible := 0
	for link := range run.Result.Links {
		if !public[link] {
			invisible++
		}
	}
	frac := float64(invisible) / float64(run.Result.TotalLinks())
	if frac < 0.5 {
		t.Fatalf("only %.1f%% of MLP links invisible in public BGP; paper ~88%%", frac*100)
	}
	_ = w
}

func TestMultiIXPOverlap(t *testing.T) {
	_, run := fixture(t)
	if run.Result.MultiIXPLinks() == 0 {
		t.Fatal("no multi-IXP links; co-located members should create overlap")
	}
	if run.Result.SumPerIXPLinks() <= run.Result.TotalLinks() {
		t.Fatal("per-IXP sums should exceed distinct links")
	}
}

func TestQueryCostAccounting(t *testing.T) {
	_, run := fixture(t)
	total := run.Active.TotalQueries()
	if total == 0 {
		t.Fatal("no active queries recorded")
	}
	for name, q := range run.Active.QueriesPerIXP {
		if q < 0 {
			t.Fatalf("%s: negative cost", name)
		}
	}
}

func TestValidationConfirmsLinks(t *testing.T) {
	w, run := fixture(t)
	v := w.Validator(run)
	res, err := v.Validate(context.Background(), run.Result)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tested == 0 {
		t.Fatal("validation tested nothing")
	}
	frac := res.ConfirmedFraction()
	if frac < 0.90 {
		t.Fatalf("validation rate %.3f below 0.90 (paper: 0.984)", frac)
	}
	// Per-LG outcomes exist for both display modes; at this small scale
	// the mode means are noisy, so only sanity bounds are asserted
	// (Fig. 8's cross-mode pattern is examined at full scale).
	var allN, bestN int
	for _, o := range res.PerLG {
		if o.Tested == 0 {
			continue
		}
		if f := o.Fraction(); f < 0 || f > 1 {
			t.Fatalf("LG %s fraction %f out of range", o.Host, f)
		}
		if o.AllPaths {
			allN++
		} else {
			bestN++
		}
	}
	if allN == 0 || bestN == 0 {
		t.Fatalf("LG modes not both exercised: all=%d best=%d", allN, bestN)
	}
}

func TestConsistencyIsHigh(t *testing.T) {
	_, run := fixture(t)
	// §4.3: members apply remarkably consistent communities — the paper
	// found <0.5% of members with any disagreement. Our generator keeps
	// one filter per (IXP, member), so residual inconsistency comes
	// only from passive setter misattribution and must stay tiny.
	for _, name := range run.Merged.IXPs() {
		st := run.Merged.Consistency(name)
		if st.Setters == 0 {
			continue
		}
		frac := float64(st.InconsistentSetters) / float64(st.Setters)
		if st.InconsistentSetters > 1 && frac > 0.02 {
			t.Fatalf("%s: %d/%d inconsistent setters (%.3f)", name, st.InconsistentSetters, st.Setters, frac)
		}
	}
}

func TestReconstructedFiltersMatchTruth(t *testing.T) {
	w, run := fixture(t)
	checked := 0
	mismatched := 0
	for _, info := range w.Topo.IXPs {
		x := run.Result.PerIXP[info.Name]
		for m, got := range x.Filters {
			truth, ok := w.Topo.ExportFilter(info.Name, m)
			if !ok {
				continue
			}
			checked++
			if !got.Equal(truth) {
				mismatched++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no filters checked")
	}
	// Residual mismatch comes from passive misattribution at IXPs with
	// incomplete member lists; it must stay within the paper's <2%.
	if float64(mismatched)/float64(checked) > 0.02 {
		t.Fatalf("%d/%d filters mismatch", mismatched, checked)
	}
}

func TestBuildScenarioWorlds(t *testing.T) {
	// Every registered scenario must build a valid world end to end and
	// sustain the inference pipeline. The baseline fixture is covered by
	// every other test; here the add-on scenarios get a full pass each.
	for _, name := range topology.ScenarioNames() {
		if name == "baseline" {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := topology.TestConfig()
			cfg.Scenario = name
			w, err := BuildWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if w.Scenario() != name {
				t.Fatalf("Scenario() = %q", w.Scenario())
			}
			run, err := w.RunInference(context.Background(), core.DefaultActiveConfig())
			if err != nil {
				t.Fatal(err)
			}
			if run.Result.TotalLinks() == 0 {
				t.Fatal("no links inferred")
			}
			if name == "remote-peering" {
				remotes := 0
				for _, ms := range w.Topo.RemoteMembers {
					remotes += len(ms)
				}
				if remotes == 0 {
					t.Fatal("remote-peering world has no remote members")
				}
			}
		})
	}
}
