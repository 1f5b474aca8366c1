package propagate

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/topology"
)

// eachScenario runs f as a subtest on the test-scale world of every
// scenario, in name order.
func eachScenario(t *testing.T, f func(t *testing.T, topo *topology.Topology)) {
	for _, name := range topology.ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			cfg := topology.TestConfig()
			cfg.Scenario = name
			topo, err := topology.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			f(t, topo)
		})
	}
}

// TestUpDownTranspose pins the invariant a sweep's closure restriction
// is exact under: on every scenario, the up adjacency (providers plus
// siblings) is exactly the transpose of the down adjacency (customers
// plus siblings), so no down edge enters an upward-closed set from
// outside it.
func TestUpDownTranspose(t *testing.T) {
	eachScenario(t, func(t *testing.T, topo *topology.Topology) {
		e := NewEngine(topo, 0)
		n := int32(len(e.asns))
		rows := make([][]int32, n)
		for u := range n {
			for _, c := range e.down.row(u) {
				rows[c] = append(rows[c], u) // ascending: u walks up
			}
		}
		for c := range n {
			if got := e.up.row(c); !slices.Equal(got, rows[c]) {
				t.Fatalf("AS %s: up row %v, transposed down row %v", e.asns[c], got, rows[c])
			}
		}
	})
}

// panicsNotComputed reports whether f panics with the sweep contract's
// message; any other panic fails the test.
func panicsNotComputed(t *testing.T, f func()) (panicked bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			msg, _ := r.(string)
			if !strings.Contains(msg, "was not computed") {
				t.Fatalf("unexpected panic: %v", r)
			}
			panicked = true
		}
	}()
	f()
	return false
}

// TestSweepMatchesFullTree checks a vantage-restricted sweep against
// full trees on every scenario, with the feeders plus a random sample
// as vantages. For every destination, every AS in the closure has the
// full tree's route and Adj-RIB-In, and every IXP has the full exporter
// list, every exporter the full route. For every eighth destination
// (panics are slow), every other AS either has the full route or, when
// phases 1-2 gave it none, panics naming the contract, as does
// AvailableRoutesFromArena outside the closure.
func TestSweepMatchesFullTree(t *testing.T) {
	eachScenario(t, func(t *testing.T, topo *topology.Topology) {
		full := NewEngine(topo, 0)
		e := NewEngine(topo, 0)
		var asns []bgp.ASN
		for _, f := range topo.Feeders {
			asns = append(asns, f.ASN)
		}
		rng := rand.New(rand.NewSource(24))
		for range 5 {
			asns = append(asns, topo.Order[rng.Intn(len(topo.Order))])
		}
		v := e.NewVantages(asns)
		inside := 0
		for _, in := range v.above {
			if in {
				inside++
			}
		}
		if inside == 0 || inside == len(topo.Order) {
			t.Fatalf("closure of %d of %d ASes tests nothing", inside, len(topo.Order))
		}
		trees, uncomputed := 0, 0
		var swept, fullRoutes RouteArena
		e.ForEachTree(v, func(tr *Tree) {
			trees++
			swept.Reset()
			fullRoutes.Reset()
			ft := full.Tree(tr.Dest())
			for i, a := range topo.Order {
				if !v.above[i] && trees%8 != 1 {
					continue
				}
				want := ft.RouteFromArena(a, &fullRoutes)
				if v.above[i] {
					if got := tr.RouteFromArena(a, &swept); !reflect.DeepEqual(got, want) {
						t.Fatalf("dest %s: route at %s in the closure %+v, full %+v", tr.Dest(), a, got, want)
					}
					if got, want := tr.AvailableRoutesFromArena(a, &swept, nil), ft.AvailableRoutesFromArena(a, &fullRoutes, nil); !reflect.DeepEqual(got, want) {
						t.Fatalf("dest %s: Adj-RIB-In at %s in the closure differs", tr.Dest(), a)
					}
					continue
				}
				if !panicsNotComputed(t, func() { tr.AvailableRoutesFromArena(a, &swept, nil) }) {
					t.Fatalf("dest %s: AvailableRoutesFromArena(%s) outside the closure did not panic", tr.Dest(), a)
				}
				var got *VantageRoute
				if panicsNotComputed(t, func() { got = tr.RouteFromArena(a, &swept) }) {
					if c := hopOf(ft, a).class; c != ClassNone && c != ClassProvider {
						t.Fatalf("dest %s: %s has a %s route but panicked", tr.Dest(), a, c)
					}
					uncomputed++
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("dest %s: route at %s outside the closure %+v, full %+v", tr.Dest(), a, got, want)
				}
			}
			for _, x := range topo.IXPs {
				exps := tr.Exporters(x.Name)
				if want := ft.Exporters(x.Name); !slices.Equal(exps, want) {
					t.Fatalf("dest %s: %s exporters %v, full %v", tr.Dest(), x.Name, exps, want)
				}
				for _, m := range exps {
					if got, want := tr.RouteFromArena(m, &swept), ft.RouteFromArena(m, &fullRoutes); !reflect.DeepEqual(got, want) {
						t.Fatalf("dest %s: exporter %s at %s: route %+v, full %+v", tr.Dest(), m, x.Name, got, want)
					}
				}
			}
		})
		if trees != len(topo.Order) {
			t.Fatalf("swept %d of %d trees", trees, len(topo.Order))
		}
		if uncomputed == 0 {
			t.Fatalf("no AS outside the closure lacked a route: the panic went unchecked")
		}
	})
}

// TestForEachTreeOfWindows pins the double-buffered sweep's delivery:
// at GOMAXPROCS 1, 2 and 4 (the pool's width), over dest lists around
// the window size (an unknown ASN and repeats included), fn sees
// exactly the trees a one-at-a-time sweep gives, in the order listed,
// on the caller's goroutine one call at a time.
func TestForEachTreeOfWindows(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	topo, err := topology.Generate(topology.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(topo, 0)
	var feeders []bgp.ASN
	for _, f := range topo.Feeders {
		feeders = append(feeders, f.ASN)
	}
	v := e.NewVantages(feeders)
	const unknown bgp.ASN = 4199999999
	for _, n := range []int{0, 1, 255, 256, 257, 600} {
		dests := make([]bgp.ASN, n)
		for i := range dests {
			dests[i] = topo.Order[(i*7)%len(topo.Order)]
		}
		if n > 1 {
			dests[n/2] = unknown
		}
		var want [][]byte
		for _, d := range dests {
			e.ForEachTreeOf(v, []bgp.ASN{d}, func(tr *Tree) { want = append(want, tr.AppendState(nil)) })
		}
		for _, workers := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(workers)
			var got [][]byte
			inFn := false
			e.ForEachTreeOf(v, dests, func(tr *Tree) {
				if inFn {
					t.Fatal("fn entered twice at once")
				}
				inFn = true
				got = append(got, tr.AppendState(nil))
				inFn = false
			})
			if len(got) != len(want) {
				t.Fatalf("%d dests, %d workers: %d trees, want %d", n, workers, len(got), len(want))
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("%d dests, %d workers: tree %d differs from the one-at-a-time sweep", n, workers, i)
				}
			}
		}
	}
}
