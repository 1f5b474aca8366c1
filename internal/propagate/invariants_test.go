package propagate

import (
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/topology"
)

// TestValleyFreeInvariant checks, over a full generated world, that
// every reconstructed best path obeys the Gao-Rexford export rules: at
// most one peer-class edge, positioned at the top of the path, with
// only customer->provider edges before it (reading from the origin) and
// only provider->customer edges after it. Sibling edges may appear
// anywhere.
func TestValleyFreeInvariant(t *testing.T) {
	topo, err := topology.Generate(topology.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(topo, 0)

	// edgeKind classifies the directed hop a->b as seen walking from
	// the vantage toward the origin.
	const (
		kindDown    = iota // a provider of b: traffic later flows up b->a
		kindUp             // a customer of b
		kindPeer           // bilateral p2p or RS
		kindSibling        // sibling
		kindUnknown        // no direct edge: must be an RS crossing
	)
	classify := func(a, b bgp.ASN) int {
		rel, ok := topo.RelationshipOf(a, b)
		if !ok {
			return kindUnknown
		}
		switch rel {
		case topology.RelP2C:
			return kindDown
		case topology.RelC2P:
			return kindUp
		case topology.RelP2P:
			return kindPeer
		default:
			return kindSibling
		}
	}

	checked, rsPaths := 0, 0
	var arena RouteArena
	for i, dest := range topo.Order {
		if i%17 != 0 {
			continue // sample destinations to keep the test quick
		}
		tr := e.Tree(dest)
		for j, vantage := range topo.Order {
			if j%23 != 0 || vantage == dest {
				continue
			}
			arena.Reset()
			r := tr.RouteFromArena(vantage, &arena)
			if r == nil {
				continue
			}
			checked++
			if r.Path[0] != vantage || r.Path[len(r.Path)-1] != dest {
				t.Fatalf("path endpoints wrong: %v (vantage %s dest %s)", r.Path, vantage, dest)
			}
			if d := int(hopOf(tr, vantage).dist); d != len(r.Path)-1 {
				t.Fatalf("dist %d disagrees with path %v", d, r.Path)
			}
			if r.ViaIXP != "" {
				rsPaths++
			}
			// Walk from vantage to origin. Reading in that direction,
			// a valley-free path climbs provider edges first, crosses
			// at most one peer (or route-server) edge at the top, and
			// then only descends customer edges: up* (peer)? down*.
			const (
				ascending  = 0
				descending = 1
			)
			phase := ascending
			for k := 0; k+1 < len(r.Path); k++ {
				switch classify(r.Path[k], r.Path[k+1]) {
				case kindUp:
					if phase == descending {
						t.Fatalf("climb after descent in path %v at hop %d (dest %s)", r.Path, k, dest)
					}
				case kindPeer, kindUnknown:
					// RS crossings have no direct topology edge. Either
					// way the top may be crossed only once.
					if phase == descending {
						t.Fatalf("second peak crossing in path %v at hop %d (dest %s)", r.Path, k, dest)
					}
					phase = descending
				case kindDown:
					phase = descending
				case kindSibling:
					// allowed anywhere
				}
			}
			// Communities imply an RS crossing and vice versa only when
			// no hop stripped them; the one-directional implication
			// must hold.
			if len(r.Communities) > 0 && r.ViaIXP == "" {
				t.Fatalf("communities without RS crossing: %v", r.Path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no paths checked")
	}
	if rsPaths == 0 {
		t.Fatal("sample contained no route-server paths; widen the sample")
	}
}

// TestAvailableRoutesInvariants verifies that the all-paths view is a
// superset of the best path and loop-free at every sampled vantage.
func TestAvailableRoutesInvariants(t *testing.T) {
	topo, err := topology.Generate(topology.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(topo, 0)

	checked := 0
	var arena RouteArena
	for i, dest := range topo.Order {
		if i%53 != 0 {
			continue
		}
		tr := e.Tree(dest)
		for j, vantage := range topo.Order {
			if j%67 != 0 || vantage == dest {
				continue
			}
			arena.Reset()
			best := tr.RouteFromArena(vantage, &arena)
			all := tr.AvailableRoutesFromArena(vantage, &arena, nil)
			if best == nil {
				if len(all) != 0 {
					t.Fatalf("alternatives without a best route at %s", vantage)
				}
				continue
			}
			checked++
			if len(all) == 0 {
				t.Fatalf("best route but no alternatives at %s toward %s", vantage, dest)
			}
			if !all[0].Best {
				t.Fatalf("first alternative not marked best at %s", vantage)
			}
			// The engine's best class matches the ranking's best class.
			if all[0].Class != best.Class {
				t.Fatalf("class mismatch at %s: ranked %v vs engine %v", vantage, all[0].Class, best.Class)
			}
			for _, r := range all {
				seen := map[bgp.ASN]bool{}
				for _, a := range r.Path {
					if seen[a] {
						t.Fatalf("loop in alternative %v at %s", r.Path, vantage)
					}
					seen[a] = true
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no vantages checked")
	}
}
