package propagate

import (
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/topology"
)

// arenaWorld builds a moderately sized world once for the arena tests.
func arenaWorld(t testing.TB) (*topology.Topology, *Engine) {
	t.Helper()
	topo, err := topology.Generate(topology.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return topo, NewEngine(topo, 0)
}

// routeFrom reconstructs the vantage's best route into an arena of its
// own, so the route stays valid for the rest of the test.
func routeFrom(tr *Tree, vantage bgp.ASN) *VantageRoute {
	return tr.RouteFromArena(vantage, new(RouteArena))
}

// availableRoutesFrom is routeFrom for the vantage's whole Adj-RIB-In.
func availableRoutesFrom(tr *Tree, vantage bgp.ASN) []*VantageRoute {
	return tr.AvailableRoutesFromArena(vantage, new(RouteArena), nil)
}

// TestAvailableRoutesFromArenaAllocs asserts the point of the arena: a
// warm arena enumeration allocates at most once (the result slice).
func TestAvailableRoutesFromArenaAllocs(t *testing.T) {
	topo, engine := arenaWorld(t)
	// Pick the (destination, vantage) pair with the most routes among a
	// sample, so the measurement covers real enumeration work.
	var tr *Tree
	var vantage bgp.ASN
	best := 0
	for i := 0; i < len(topo.Order); i += 53 {
		c := engine.Tree(topo.Order[i])
		for _, lg := range topo.ValidationLGs {
			if n := len(availableRoutesFrom(c, lg.ASN)); n > best {
				best, tr, vantage = n, c, lg.ASN
			}
		}
	}
	if best < 2 {
		t.Fatalf("best vantage has only %d routes", best)
	}

	var arena RouteArena
	var buf []*VantageRoute
	// Warm the arena chunks once so steady-state is measured.
	buf = tr.AvailableRoutesFromArena(vantage, &arena, buf)
	arenaAllocs := testing.AllocsPerRun(50, func() {
		arena.Reset()
		buf = tr.AvailableRoutesFromArena(vantage, &arena, buf)
		if len(buf) == 0 {
			t.Fatal("no routes")
		}
	})
	if arenaAllocs > 1 {
		t.Errorf("warm arena enumeration allocates %.1f times per run, want <= 1", arenaAllocs)
	}
}
