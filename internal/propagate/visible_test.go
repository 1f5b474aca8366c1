package propagate

import (
	"math/rand"
	"slices"
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/topology"
)

// routesAt renders, for every destination, the route every AS holds
// toward it (class, path, communities) on a freshly built engine: the
// ground truth Visible is checked against.
func routesAt(topo *topology.Topology) map[bgp.ASN][]string {
	e := NewEngine(topo, 0)
	out := make(map[bgp.ASN][]string, len(topo.Order))
	var arena RouteArena
	e.ForEachTree(4, func(tr *Tree) {
		fps := make([]string, len(topo.Order))
		for i, v := range topo.Order {
			arena.Reset()
			r := tr.RouteFromArena(v, &arena)
			if r == nil {
				continue
			}
			b := []byte{byte(r.Class)}
			for _, a := range r.Path {
				b = append(b, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
			}
			b = append(b, 0xFF)
			for _, c := range r.Communities {
				b = append(b, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
			}
			fps[i] = string(b)
		}
		out[tr.Dest()] = fps
	})
	return out
}

// TestVisibleCoversEveryVantageChange is the visible-set rule's
// property test: over random deltas and random vantage sets, every
// destination whose reconstructed route differs at some vantage between
// a fresh pre-delta and a fresh post-delta engine is in Visible(dirty),
// Visible is an order-preserving subset of dirty, and prefix-move
// endpoints are always visible.
func TestVisibleCoversEveryVantageChange(t *testing.T) {
	topo, err := topology.Generate(topology.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(topo, 0)
	rng := rand.New(rand.NewSource(1337))
	epochs := 6
	if testing.Short() {
		epochs = 3
	}
	n := len(topo.Order)
	sawChange, sawSmaller := false, false
	for epoch := 0; epoch < epochs; epoch++ {
		before := routesAt(topo)
		delta := randomDelta(t, topo, rng, epoch)
		dirty, err := eng.Apply(delta)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		after := routesAt(topo)

		// Vantage sets: a few singletons, small random sets, the
		// world's feeders, and everyone.
		sets := [][]bgp.ASN{topo.Order}
		var feeders []bgp.ASN
		for _, f := range topo.Feeders {
			feeders = append(feeders, f.ASN)
		}
		sets = append(sets, feeders)
		for i := 0; i < 24; i++ {
			size := 1 + rng.Intn(1+i)
			set := make([]bgp.ASN, size)
			for j := range set {
				set[j] = topo.Order[rng.Intn(n)]
			}
			sets = append(sets, set)
		}

		for _, set := range sets {
			visible := eng.NewVantages(set).Visible(dirty)
			vis := make(map[bgp.ASN]bool, len(visible))
			di := 0
			for _, d := range visible {
				vis[d] = true
				for di < len(dirty) && dirty[di] != d {
					di++
				}
				if di == len(dirty) {
					t.Fatalf("epoch %d: visible %s is not in dirty, or out of order", epoch, d)
				}
			}
			if len(visible) < len(dirty) {
				sawSmaller = true
			}
			for _, op := range delta.Prefixes {
				if !vis[op.From] || !vis[op.To] {
					t.Fatalf("epoch %d: prefix move %s->%s not visible", epoch, op.From, op.To)
				}
			}
			for _, dest := range topo.Order {
				b, a := before[dest], after[dest]
				for _, v := range set {
					vi := eng.idx[v]
					if b[vi] != a[vi] {
						sawChange = true
						if !vis[dest] {
							t.Fatalf("epoch %d: route of %s toward %s changed but %s is not visible from %d vantages (delta %+v)",
								epoch, v, dest, dest, len(set), delta)
						}
					}
				}
			}
		}
	}
	if !sawChange {
		t.Fatal("no vantage route changed in any epoch; test is vacuous")
	}
	if !sawSmaller {
		t.Fatal("Visible never dropped a dirty destination; the rule filters nothing")
	}
}

// TestVisibleEdgeCases: before any Apply nothing is visible, and after
// a failed Apply (engine rebuilt, extent unknown) everything asked is.
func TestVisibleEdgeCases(t *testing.T) {
	topo, err := topology.Generate(topology.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(topo, 0)
	vs := eng.NewVantages([]bgp.ASN{topo.Order[0], 4200000001})
	if got := vs.Visible(topo.Order); len(got) != 0 {
		t.Fatalf("fresh engine: %d destinations visible, want none", len(got))
	}
	info := topo.IXPs[0]
	links := topo.BilateralLinks()
	bad := &Delta{
		Peers:   []PeerOp{{A: links[0].A, B: links[0].B, Add: false}},
		Members: []MemberOp{{IXP: info.Name, Member: info.SortedRSMembers()[0], Join: true}},
	}
	if _, err := eng.Apply(bad); err == nil {
		t.Fatal("joining an existing RS member must fail")
	}
	if got := vs.Visible(topo.Order); len(got) != len(topo.Order) {
		t.Fatalf("after a failed Apply %d of %d destinations visible, want all", len(got), len(topo.Order))
	}
}

// TestForEachTreeOfSubsets pins the subset walk: arbitrary ascending
// subsets (spanning more than one compute window), the empty subset and
// unknown ASNs give the same callback sequence — the listed known
// destinations, in order, each with the tree Engine.Tree computes — at
// workers 1, 2 and 8.
func TestForEachTreeOfSubsets(t *testing.T) {
	topo, err := topology.Generate(topology.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(topo, 0)
	rng := rand.New(rand.NewSource(5))
	pick := func(keep float64) []bgp.ASN {
		var out []bgp.ASN
		for _, a := range topo.Order {
			if rng.Float64() < keep {
				out = append(out, a)
			}
		}
		return out
	}
	big := pick(0.7)
	if len(big) <= 256 {
		t.Fatalf("subset of %d does not span two windows", len(big))
	}
	withUnknown := append([]bgp.ASN{4200000001}, pick(0.05)...)
	withUnknown = append(withUnknown, 4200000002)
	cases := map[string][]bgp.ASN{
		"big":     big,
		"small":   pick(0.02),
		"one":     {topo.Order[len(topo.Order)/2]},
		"empty":   {},
		"nil":     nil,
		"unknown": withUnknown,
		"all":     topo.Order,
	}
	for name, dests := range cases {
		var want []bgp.ASN
		for _, d := range dests {
			if _, ok := e.idx[d]; ok {
				want = append(want, d)
			}
		}
		for _, workers := range []int{1, 2, 8} {
			var got []bgp.ASN
			e.ForEachTreeOf(workers, dests, func(tr *Tree) {
				got = append(got, tr.Dest())
				diffSnapshots(t, name, snapshotTree(e.Tree(tr.Dest())), snapshotTree(tr))
			})
			if !slices.Equal(got, want) {
				t.Fatalf("%s, workers %d: callback sequence %v, want %v", name, workers, got, want)
			}
		}
	}
}
