package topology

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// worldFingerprint hashes everything the generator decides, so two
// worlds with equal fingerprints are identical for every consumer.
func worldFingerprint(t *Topology) uint64 {
	h := fnv.New64a()
	for _, asn := range t.Order {
		as := t.ASes[asn]
		fmt.Fprintf(h, "%d|%d|%d|%v|%v|%v|%v|%v|%v|%v|%v|%v|%v|%v|%v\n",
			asn, as.Tier, as.Region, as.Providers, as.Customers, as.Peers,
			as.Siblings, as.Prefixes, as.StripsCommunities, as.OmitsDefaultALL,
			as.Policy, as.Scope, as.Registered, as.Content, as.PrefersBilateral)
	}
	for _, x := range t.IXPs {
		fmt.Fprintf(h, "%s|%v|%v\n", x.Name, x.Members, x.RSMembers)
		for _, m := range x.SortedRSMembers() {
			p, _ := t.Policy(x.Name, m)
			fmt.Fprintf(h, "%s|%v|%v|%v|%v|%v\n", m, p.Export.Mode, p.Export.PeerList(), p.Import.Mode, p.Import.PeerList(), p.Comms)
		}
		fmt.Fprintf(h, "%s|%v\n", x.Name, t.RemoteMembers[x.Name])
	}
	fmt.Fprintf(h, "%v|%v|%v|%d\n", t.Feeders, t.ValidationLGs, t.MemberLGs, len(t.BilateralIXP))
	return h.Sum64()
}

func generateScenario(t *testing.T, name string) *Topology {
	t.Helper()
	cfg := TestConfig()
	cfg.Scenario = name
	topo, err := Generate(cfg)
	if err != nil {
		t.Fatalf("scenario %s: %v", name, err)
	}
	return topo
}

func TestScenarioRegistry(t *testing.T) {
	// The table is sorted by hand; every listing prints it in this order.
	want := []string{"baseline", "multi-ixp-hybrid", "pari-noise", "remote-peering", "scaled-world"}
	if names := ScenarioNames(); !slices.Equal(names, want) {
		t.Fatalf("ScenarioNames() = %v, want %v", names, want)
	}
	if sc, ok := lookupScenario(""); !ok || sc.Name != "baseline" {
		t.Fatal("empty scenario name must resolve to baseline")
	}
	cfg := TestConfig()
	cfg.Scenario = "no-such-world"
	_, err := Generate(cfg)
	if err == nil {
		t.Fatal("unknown scenario must error")
	}
	if msg := fmt.Sprintf(`unknown scenario "no-such-world" (have %v)`, want); !strings.Contains(err.Error(), msg) {
		t.Fatalf("Generate error %q does not name the scenarios: want %q", err, msg)
	}
}

// scenarioGolden pins a scenario's complete world at one (seed, scale):
// aggregate shape counts plus the full-world fingerprint covering every
// relationship edge, filter, community set, feeder and LG. The values
// were captured from the per-(stage, IXP)-stream stage pipeline (PR 3's
// parallel restructuring deliberately re-keyed the generator's random
// streams); any drift here means seed reproducibility broke again.
type scenarioGolden struct {
	scenario                     string
	scale                        float64 // 0 = test scale (0.12)
	ases, members, rs            int
	transitLinks, bilateralLinks int
	remote                       int
	fingerprint                  uint64
}

// Test-scale goldens for every registered scenario.
var testScaleGoldens = []scenarioGolden{
	{"baseline", 0, 919, 221, 184, 2188, 720, 0, 0xd3562d0cd50d7d75},
	{"remote-peering", 0, 919, 245, 207, 2251, 882, 67, 0xad8579445caa2c22},
	{"multi-ixp-hybrid", 0, 919, 221, 184, 2188, 1242, 0, 0x60192e4ae605a844},
	{"pari-noise", 0, 919, 221, 184, 2189, 757, 0, 0x237f8137020886f1},
	{"scaled-world", 0, 919, 221, 184, 2188, 881, 0, 0x22df6b67d21ac5ea},
}

// Scale > 1 goldens: scenarios were previously pinned only at test
// scale; these keep the 10-100x path deterministic too. scaled-world at
// Scale 4 exercises the profile expansion (extra synthetic IXPs).
var scaledGoldens = []scenarioGolden{
	{"remote-peering", 2, 9043, 3645, 3229, 23047, 164609, 1154, 0xef9d9fbe9bccb71c},
	{"pari-noise", 2, 9043, 3359, 2944, 22340, 124111, 0, 0xf1dcbbbfe5de2c66},
	{"scaled-world", 4, 10982, 4158, 3669, 26693, 120737, 0, 0x51b13940a62af060},
}

// paperGolden pins DefaultConfig's world: the paper-scale baseline with
// 70 validation LGs and 30 extra feeders that lgserve, mlpexperiments
// and every benchmark workload generate.
var paperGolden = scenarioGolden{"baseline", 1, 4721, 1687, 1464, 11354, 31801, 0, 0xdaee2019b8d598e8}

func TestPaperWorldGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale world; skipped in -short")
	}
	topo, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, topo, paperGolden)
}

func checkGolden(t *testing.T, topo *Topology, c scenarioGolden) {
	t.Helper()
	st := topo.Stats()
	if st.ASes != c.ases {
		t.Errorf("ASes = %d, want %d", st.ASes, c.ases)
	}
	if st.IXPMembers != c.members {
		t.Errorf("IXP members = %d, want %d", st.IXPMembers, c.members)
	}
	if st.RSMembers != c.rs {
		t.Errorf("RS members = %d, want %d", st.RSMembers, c.rs)
	}
	if st.TransitLinks != c.transitLinks {
		t.Errorf("transit links = %d, want %d", st.TransitLinks, c.transitLinks)
	}
	if st.BilateralLinks != c.bilateralLinks {
		t.Errorf("bilateral links = %d, want %d", st.BilateralLinks, c.bilateralLinks)
	}
	remote := 0
	for _, ms := range topo.RemoteMembers {
		remote += len(ms)
	}
	if remote != c.remote {
		t.Errorf("remote members = %d, want %d", remote, c.remote)
	}
	if fp := worldFingerprint(topo); fp != c.fingerprint {
		t.Errorf("world fingerprint = %#x, want %#x (seed reproducibility broke)", fp, c.fingerprint)
	}
}

func TestScenarioGoldenCounts(t *testing.T) {
	for _, c := range testScaleGoldens {
		t.Run(c.scenario, func(t *testing.T) {
			checkGolden(t, generateScenario(t, c.scenario), c)
		})
	}
}

// TestScenarioScaleMatrix pins the scenario × scale matrix beyond test
// scale: golden shape plus determinism (two builds, identical worlds).
func TestScenarioScaleMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-ms worlds; skipped in -short")
	}
	for _, c := range scaledGoldens {
		t.Run(fmt.Sprintf("%s@%v", c.scenario, c.scale), func(t *testing.T) {
			cfg := TestConfig()
			cfg.Scenario = c.scenario
			cfg.Scale = c.scale
			topo, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, topo, c)
			again, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if worldFingerprint(topo) != worldFingerprint(again) {
				t.Error("same seed produced different worlds at scale")
			}
		})
	}
}

func TestScenarioDeterminism(t *testing.T) {
	baseFP := worldFingerprint(generateScenario(t, "baseline"))
	if baseFP != testScaleGoldens[0].fingerprint {
		t.Errorf("baseline world fingerprint = %#x, want %#x (seed reproducibility broke)",
			baseFP, testScaleGoldens[0].fingerprint)
	}
	for _, name := range ScenarioNames() {
		a := worldFingerprint(generateScenario(t, name))
		b := worldFingerprint(generateScenario(t, name))
		if a != b {
			t.Errorf("scenario %s: same seed produced different worlds (%x vs %x)", name, a, b)
		}
		if name != "baseline" && a == baseFP {
			t.Errorf("scenario %s produced the baseline world verbatim", name)
		}
	}
}

// TestParallelGenerationBitIdentical is the parallel pipeline's
// contract: for every scenario, the world built on a worker pool is
// bit-identical to sequential execution — and both match the pinned
// fingerprint, so parallelism can never silently re-seed the world.
// The pool is GOMAXPROCS wide, so the test varies GOMAXPROCS.
func TestParallelGenerationBitIdentical(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, c := range testScaleGoldens {
		t.Run(c.scenario, func(t *testing.T) {
			for _, workers := range []int{1, 3, 8} {
				runtime.GOMAXPROCS(workers)
				cfg := TestConfig()
				cfg.Scenario = c.scenario
				topo, err := Generate(cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if fp := worldFingerprint(topo); fp != c.fingerprint {
					t.Errorf("workers=%d: fingerprint %#x, want %#x", workers, fp, c.fingerprint)
				}
			}
		})
	}
}

func TestRemotePeeringGroundTruth(t *testing.T) {
	topo := generateScenario(t, "remote-peering")
	if len(topo.RemoteMembers) == 0 {
		t.Fatal("no remote members recorded")
	}
	for name, remotes := range topo.RemoteMembers {
		info := topo.IXPByName(name)
		if info == nil {
			t.Fatalf("remote members for unknown IXP %s", name)
		}
		for _, m := range remotes {
			if !info.IsMember(m) {
				t.Errorf("%s: remote member %s not in member list", name, m)
			}
			as := topo.ASes[m]
			if as == nil {
				t.Fatalf("%s: remote member %s missing from topology", name, m)
			}
			if as.Region == info.Region {
				t.Errorf("%s: remote member %s is local to the IXP region", name, m)
			}
			// Connected through a reseller: some provider is a local
			// transit member of the exchange.
			viaReseller := false
			for _, p := range as.Providers {
				pas := topo.ASes[p]
				if info.IsMember(p) && pas.Region == info.Region && pas.Tier == Tier2 {
					viaReseller = true
					break
				}
			}
			if !viaReseller {
				t.Errorf("%s: remote member %s has no reseller provider at the IXP", name, m)
			}
		}
	}
}

func TestHybridScenarioBoostsPresence(t *testing.T) {
	base := generateScenario(t, "baseline")
	hyb := generateScenario(t, "multi-ixp-hybrid")
	slots := func(topo *Topology) int {
		n := 0
		for _, x := range topo.IXPs {
			n += len(x.Members)
		}
		return n
	}
	if slots(hyb) <= slots(base) {
		t.Fatalf("hybrid membership slots %d not above baseline %d", slots(hyb), slots(base))
	}
	if len(hyb.BilateralLinks()) <= len(base.BilateralLinks()) {
		t.Fatal("hybrid world must add parallel bilateral sessions")
	}
}

// TestScaledWorldGrowsIXPs pins the scaled-world growth axis: Scale
// buys more exchanges (bounded per-IXP membership), never alias-table
// exhaustion.
func TestScaledWorldGrowsIXPs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a Scale-6 world")
	}
	cfg := TestConfig()
	cfg.Scenario = "scaled-world"
	cfg.Scale = 6
	topo, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(topo.IXPs), 13+int(cfg.Scale*2); got != want {
		t.Errorf("IXPs = %d, want %d", got, want)
	}
	for _, info := range topo.IXPs {
		if len(info.Members) > scaledMemberCap+scaledMemberCap/4 {
			t.Errorf("%s: %d members exceeds the scaled cap (plus hybrid growth)", info.Name, len(info.Members))
		}
	}
	// Hybrid presence must make multi-IXP membership common.
	presence := map[string]int{}
	for _, info := range topo.IXPs {
		for _, m := range info.Members {
			presence[m.String()]++
		}
	}
	multi := 0
	for _, n := range presence {
		if n > 1 {
			multi++
		}
	}
	if frac := float64(multi) / float64(len(presence)); frac < 0.10 {
		t.Errorf("multi-IXP members = %.2f of pool, want >= 0.10", frac)
	}
}

func TestASesMatchOrder(t *testing.T) {
	topo := generateScenario(t, "baseline")
	if !slices.IsSorted(topo.Order) || len(topo.ASes) != len(topo.Order) {
		t.Fatalf("Order must list every AS once, ascending: %d ASNs for %d records", len(topo.Order), len(topo.ASes))
	}
	for _, asn := range topo.Order {
		if as := topo.ASes[asn]; as == nil || as.ASN != asn {
			t.Fatalf("ASes[%s] = %v, want the record of %s", asn, as, asn)
		}
	}
}
