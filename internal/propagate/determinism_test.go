package propagate

import (
	"bytes"
	"runtime"
	"sort"
	"sync"
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/topology"
)

// refEngine is a reference implementation of tree computation kept
// deliberately naive: slices-of-slices adjacency, map-based route-server
// state and explicit sorting at every step. The optimized engine must
// produce byte-identical hop tables for every destination.
type refEngine struct {
	idx     map[bgp.ASN]int32
	asns    []bgp.ASN
	up      [][]int32
	down    [][]int32
	peers   [][]int32
	prefBil []bool

	ixps []*refIXP
}

type refIXP struct {
	members []int32
	exports map[int32]func(bgp.ASN) bool
	imports map[int32]func(bgp.ASN) bool
}

func newRefEngine(topo *topology.Topology) *refEngine {
	n := len(topo.Order)
	r := &refEngine{
		idx:     make(map[bgp.ASN]int32, n),
		asns:    make([]bgp.ASN, n),
		up:      make([][]int32, n),
		down:    make([][]int32, n),
		peers:   make([][]int32, n),
		prefBil: make([]bool, n),
	}
	for i, asn := range topo.Order {
		r.idx[asn] = int32(i)
		r.asns[i] = asn
	}
	toIdx := func(asns []bgp.ASN) []int32 {
		out := make([]int32, 0, len(asns))
		for _, a := range asns {
			if j, ok := r.idx[a]; ok {
				out = append(out, j)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for i, asn := range topo.Order {
		as := topo.ASes[asn]
		r.up[i] = toIdx(append(append([]bgp.ASN(nil), as.Providers...), as.Siblings...))
		r.down[i] = toIdx(append(append([]bgp.ASN(nil), as.Customers...), as.Siblings...))
		r.peers[i] = toIdx(as.Peers)
		r.prefBil[i] = as.PrefersBilateral
	}
	for _, info := range topo.IXPs {
		x := &refIXP{
			exports: make(map[int32]func(bgp.ASN) bool),
			imports: make(map[int32]func(bgp.ASN) bool),
		}
		for _, m := range info.SortedRSMembers() {
			mi, ok := r.idx[m]
			if !ok {
				continue
			}
			x.members = append(x.members, mi)
			if p, ok := topo.Policy(info.Name, m); ok {
				x.exports[mi] = p.Export.Allows
				x.imports[mi] = p.Import.Allows
			}
		}
		r.ixps = append(r.ixps, x)
	}
	return r
}

// compute is the original, sort-heavy tree computation.
func (r *refEngine) compute(dest bgp.ASN) ([]hop, [][]int32) {
	n := len(r.asns)
	di := r.idx[dest]
	hops := make([]hop, n)
	for i := range hops {
		hops[i] = hop{via: noVia, viaIXP: noIXP}
	}
	hops[di] = hop{via: noVia, viaIXP: noIXP, class: ClassOrigin, dist: 0}

	frontier := []int32{di}
	inNext := make([]bool, n)
	for dist := uint16(1); len(frontier) > 0; dist++ {
		var next []int32
		for _, u := range frontier {
			for _, p := range r.up[u] {
				h := &hops[p]
				if h.class > ClassCustomer {
					continue
				}
				if h.class == ClassCustomer {
					if h.dist < dist || (h.dist == dist && h.via <= u) {
						continue
					}
				}
				wasRouted := h.class == ClassCustomer
				hops[p] = hop{via: u, viaIXP: noIXP, class: ClassCustomer, dist: dist}
				if !wasRouted && !inNext[p] {
					inNext[p] = true
					next = append(next, p)
				}
			}
		}
		for _, p := range next {
			inNext[p] = false
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		frontier = next
	}

	better := func(v int32, cand hop) bool {
		cur := hops[v]
		if cand.class != cur.class {
			return cand.class > cur.class
		}
		if cand.class == ClassPeer && r.prefBil[v] && cand.bilateral != cur.bilateral {
			return cand.bilateral
		}
		if cand.dist != cur.dist {
			return cand.dist < cur.dist
		}
		return cand.via < cur.via
	}

	for u := int32(0); u < int32(n); u++ {
		if hops[u].class < ClassCustomer {
			continue
		}
		d := hops[u].dist + 1
		for _, v := range r.peers[u] {
			cand := hop{via: u, viaIXP: noIXP, bilateral: true, class: ClassPeer, dist: d}
			if better(v, cand) {
				hops[v] = cand
			}
		}
	}

	exporters := make([][]int32, len(r.ixps))
	for xi, st := range r.ixps {
		var exp []int32
		for _, m := range st.members {
			if hops[m].class >= ClassCustomer {
				exp = append(exp, m)
			}
		}
		exporters[xi] = exp
		for _, eIdx := range exp {
			ef, ok := st.exports[eIdx]
			if !ok {
				continue
			}
			d := hops[eIdx].dist + 1
			eASN := r.asns[eIdx]
			for _, v := range st.members {
				if v == eIdx {
					continue
				}
				imf, ok := st.imports[v]
				if !ok {
					continue
				}
				if !ef(r.asns[v]) || !imf(eASN) {
					continue
				}
				cand := hop{via: eIdx, viaIXP: int16(xi), class: ClassPeer, dist: d}
				if better(v, cand) {
					hops[v] = cand
				}
			}
		}
	}

	maxDist := uint16(0)
	for i := range hops {
		if hops[i].class != ClassNone && hops[i].dist > maxDist {
			maxDist = hops[i].dist
		}
	}
	buckets := make([][]int32, int(maxDist)+2)
	for i := int32(0); i < int32(n); i++ {
		if hops[i].class != ClassNone {
			buckets[hops[i].dist] = append(buckets[hops[i].dist], i)
		}
	}
	for d := 0; d < len(buckets); d++ {
		bucket := buckets[d]
		sort.Slice(bucket, func(i, j int) bool { return bucket[i] < bucket[j] })
		for _, u := range bucket {
			if int(hops[u].dist) != d || hops[u].class == ClassNone {
				continue
			}
			nd := uint16(d) + 1
			for _, c := range r.down[u] {
				cand := hop{via: u, viaIXP: noIXP, class: ClassProvider, dist: nd}
				if better(c, cand) {
					hops[c] = cand
					for len(buckets) <= int(nd) {
						buckets = append(buckets, nil)
					}
					buckets[nd] = append(buckets[nd], c)
				}
			}
		}
	}
	return hops, exporters
}

// snapshot is a deep copy of one tree's observable state.
type snapshot struct {
	dest      bgp.ASN
	hops      []hop
	exporters [][]int32
}

func snapshotTree(t *Tree) snapshot {
	s := snapshot{
		dest:      t.dest,
		hops:      append([]hop(nil), t.hops...),
		exporters: make([][]int32, len(t.e.ixps)),
	}
	for xi := range t.e.ixps {
		s.exporters[xi] = append([]int32(nil), t.exportersAt(int16(xi))...)
	}
	return s
}

func diffSnapshots(t *testing.T, what string, a, b snapshot) {
	t.Helper()
	if a.dest != b.dest {
		t.Fatalf("%s: dest %s != %s", what, a.dest, b.dest)
	}
	for i := range a.hops {
		if a.hops[i] != b.hops[i] {
			t.Fatalf("%s: dest %s: hop[%d] differs: %+v != %+v", what, a.dest, i, a.hops[i], b.hops[i])
		}
	}
	if len(a.exporters) != len(b.exporters) {
		t.Fatalf("%s: dest %s: exporter IXP count %d != %d", what, a.dest, len(a.exporters), len(b.exporters))
	}
	for xi := range a.exporters {
		ea, eb := a.exporters[xi], b.exporters[xi]
		if len(ea) != len(eb) {
			t.Fatalf("%s: dest %s: IXP %d exporter count %d != %d", what, a.dest, xi, len(ea), len(eb))
		}
		for j := range ea {
			if ea[j] != eb[j] {
				t.Fatalf("%s: dest %s: IXP %d exporter[%d] %d != %d", what, a.dest, xi, j, ea[j], eb[j])
			}
		}
	}
}

// TestComputeMatchesReference checks, over the generated world of every
// scenario, that the optimized engine produces hop tables and exporter
// lists byte-identical to the naive reference for every destination —
// via Tree and via ForEachTree at several GOMAXPROCS (the sweep pool's
// width). The sweep has every AS as a vantage, so it computes full
// trees too.
func TestComputeMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range topology.ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			cfg := topology.TestConfig()
			cfg.Scenario = name
			topo, err := topology.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefEngine(topo)
			e := NewEngine(topo, 0)

			want := make(map[bgp.ASN]snapshot, len(topo.Order))
			for _, dest := range topo.Order {
				hops, exps := ref.compute(dest)
				for len(exps) < len(e.ixps) {
					exps = append(exps, nil)
				}
				want[dest] = snapshot{dest: dest, hops: hops, exporters: exps}
			}

			// Via Tree (the full, uncached tree).
			for _, dest := range topo.Order {
				diffSnapshots(t, "Tree", want[dest], snapshotTree(e.Tree(dest)))
			}

			// Via ForEachTree at several pool widths. Snapshots must be
			// taken inside fn: the tree is recycled afterward.
			for _, workers := range []int{1, 3, 8} {
				runtime.GOMAXPROCS(workers)
				e2 := NewEngine(topo, 0)
				count := 0
				e2.ForEachTree(e2.NewVantages(topo.Order), func(tr *Tree) {
					diffSnapshots(t, "ForEachTree", want[tr.Dest()], snapshotTree(tr))
					count++
				})
				if count != len(topo.Order) {
					t.Fatalf("ForEachTree at GOMAXPROCS %d visited %d of %d destinations", workers, count, len(topo.Order))
				}
			}
		})
	}
}

// TestComputeMatchesReferenceSmallWorld runs the same comparison over
// the hand-wired test topology, where failures are easy to read.
func TestComputeMatchesReferenceSmallWorld(t *testing.T) {
	topo := buildWorld()
	ref := newRefEngine(topo)
	e := NewEngine(topo, 0)
	for _, dest := range topo.Order {
		hops, exps := ref.compute(dest)
		for len(exps) < len(e.ixps) {
			exps = append(exps, nil)
		}
		want := snapshot{dest: dest, hops: hops, exporters: exps}
		diffSnapshots(t, "Tree", want, snapshotTree(e.Tree(dest)))
	}
}

// TestTreeConcurrent checks that concurrent uncached Tree calls for one
// destination, which share the engine's scratch pool, each compute the
// same tree (run it under -race).
func TestTreeConcurrent(t *testing.T) {
	topo := buildWorld()
	e := NewEngine(topo, 0)
	const goroutines = 16
	states := make([][]byte, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			states[g] = e.Tree(1001).AppendState(nil)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if !bytes.Equal(states[g], states[0]) {
			t.Fatalf("goroutine %d computed a different tree", g)
		}
	}
}
