package pipeline

import (
	"context"
	"fmt"
	"maps"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/lg"
	"mlpeering/internal/propagate"
	"mlpeering/internal/topology"
)

func testWorld(t *testing.T) (*topology.Topology, *propagate.Engine, map[string]*propagate.RSRIB) {
	t.Helper()
	topo, err := topology.Generate(topology.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := propagate.NewEngine(topo, 0)
	ribs := propagate.BuildRSRIBs(e, 2)
	return topo, e, ribs
}

func TestRSBackendOverHTTP(t *testing.T) {
	topo, _, ribs := testWorld(t)
	info := topo.IXPs[0]
	rib := ribs[info.Name]

	srv := lg.NewServer()
	srv.Mount("rs", newRSBackend(rib, nil))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := &lg.Client{BaseURL: ts.URL + "/rs"}
	ctx := context.Background()

	// Step 1: summary gives the connected members.
	peers, err := client.Summary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) == 0 {
		t.Fatal("no peers in summary")
	}
	for _, p := range peers {
		if !info.IsRSMember(p.ASN) {
			t.Fatalf("summary lists non-member %s", p.ASN)
		}
		if p.PfxCount <= 0 {
			t.Fatalf("member %s has no prefixes", p.ASN)
		}
	}

	// Step 2: neighbor routes round-trip through text.
	m := peers[0]
	prefixes, err := client.NeighborRoutes(ctx, m.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(prefixes) != m.PfxCount {
		t.Fatalf("routes = %d, summary said %d", len(prefixes), m.PfxCount)
	}

	// Step 3: prefix lookup returns communities.
	foundComm := false
	for _, p := range prefixes {
		paths, err := client.Lookup(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) == 0 {
			t.Fatalf("prefix %s vanished", p)
		}
		for _, pi := range paths {
			if len(pi.Communities) > 0 {
				foundComm = true
			}
			if len(pi.Path) == 0 {
				t.Fatalf("empty path for %s", p)
			}
		}
		if foundComm {
			break
		}
	}
	if !foundComm {
		t.Fatal("no communities visible through LG")
	}

	// 1 summary + 1 neighbor-routes + ≥1 lookup.
	if client.QueryCount() < 3 {
		t.Fatalf("query counter = %d", client.QueryCount())
	}
	client.ResetQueryCount()
	if client.QueryCount() != 0 {
		t.Fatal("reset failed")
	}
}

func TestRSBackendHiddenMembers(t *testing.T) {
	topo, _, ribs := testWorld(t)
	info := topo.IXPs[0]
	rib := ribs[info.Name]
	all := rib.Members()
	if len(all) < 2 {
		t.Skip("not enough members")
	}
	hidden := all[0]
	b := newRSBackend(rib, []bgp.ASN{hidden})
	for _, p := range b.Summary() {
		if p.ASN == hidden {
			t.Fatal("hidden member in summary")
		}
	}
	addr, _ := info.MemberAddr(hidden)
	if _, err := b.NeighborRoutes(addr); err == nil {
		t.Fatal("hidden member queryable")
	}
}

func TestASBackendBestVsAllPaths(t *testing.T) {
	topo, e, _ := testWorld(t)
	owners := topo.PrefixOwners()

	// Find an RS member with a prefix to look up from another member.
	info := topo.IXPs[0]
	members := info.SortedRSMembers()
	var vantage, origin bgp.ASN
	var prefix bgp.Prefix
	for _, m := range members {
		for _, o := range members {
			if m == o || len(topo.ASes[o].Prefixes) == 0 {
				continue
			}
			vantage, origin, prefix = m, o, topo.ASes[o].Prefixes[0]
			break
		}
		if vantage != 0 {
			break
		}
	}
	if vantage == 0 {
		t.Skip("no suitable pair")
	}
	_ = origin

	allB := newASBackend(e, vantage, owners, true)
	bestB := newASBackend(e, vantage, owners, false)

	allPaths, err := allB.Lookup(prefix)
	if err != nil {
		t.Fatal(err)
	}
	bestPaths, err := bestB.Lookup(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(bestPaths) > 1 {
		t.Fatalf("best-path LG returned %d paths", len(bestPaths))
	}
	if len(allPaths) < len(bestPaths) {
		t.Fatal("all-paths LG returned fewer paths than best-path LG")
	}
	// The LG's own ASN must not appear in displayed paths.
	for _, pi := range append(allPaths, bestPaths...) {
		for _, a := range pi.Path {
			if a == vantage {
				t.Fatalf("own ASN leaked into displayed path %v", pi.Path)
			}
		}
	}
}

// TestConcurrentLookupsOneBackend hammers a single mounted AS looking
// glass from many goroutines. The server serializes per-LG requests
// because an AS backend's Lookup results alias its route arena until the
// next Lookup; run under -race this pins the absence of arena reuse
// races, and every response must parse to the same stable path set.
func TestConcurrentLookupsOneBackend(t *testing.T) {
	topo, e, _ := testWorld(t)
	owners := topo.PrefixOwners()
	info := topo.IXPs[0]
	members := info.SortedRSMembers()
	var vantage bgp.ASN
	var prefix bgp.Prefix
	for _, m := range members {
		for _, o := range members {
			if m != o && len(topo.ASes[o].Prefixes) > 0 {
				vantage, prefix = m, topo.ASes[o].Prefixes[0]
				break
			}
		}
		if vantage != 0 {
			break
		}
	}
	if vantage == 0 {
		t.Skip("no suitable pair")
	}

	srv := lg.NewServer()
	srv.Mount("as", newASBackend(e, vantage, owners, true))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := &lg.Client{BaseURL: ts.URL + "/as"}
	want, err := client.Lookup(context.Background(), prefix)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			c := &lg.Client{BaseURL: ts.URL + "/as"}
			for i := 0; i < 20; i++ {
				got, err := c.Lookup(context.Background(), prefix)
				if err != nil {
					errs <- err
					return
				}
				if len(got) != len(want) {
					errs <- fmt.Errorf("lookup returned %d paths, want %d", len(got), len(want))
					return
				}
				for j := range got {
					if len(got[j].Path) != len(want[j].Path) {
						errs <- fmt.Errorf("path %d length drifted under concurrency", j)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestASBackendMatchesFullTree pins the one-tree sweep behind
// asBackend.Lookup to the complete tree: for every AS looking glass of
// the test world, in both display modes, and a sample of prefixes, the
// answer equals the one rendered from Engine.Tree.
func TestASBackendMatchesFullTree(t *testing.T) {
	topo, e, _ := testWorld(t)
	owners := topo.PrefixOwners()
	prefixes := make([]bgp.Prefix, 0, len(owners))
	for p := range owners {
		prefixes = append(prefixes, p)
	}
	slices.SortFunc(prefixes, bgp.ComparePrefixes)
	var sample []bgp.Prefix
	for i := 0; i < len(prefixes); i += 9 {
		sample = append(sample, prefixes[i])
	}
	hosts := slices.Clone(topo.ValidationLGs)
	for _, name := range slices.Sorted(maps.Keys(topo.MemberLGs)) {
		hosts = append(hosts, topo.MemberLGs[name]...)
	}
	render := func(ps []lg.PathInfo) string {
		var sb strings.Builder
		for _, p := range ps {
			fmt.Fprintf(&sb, "%v nh=%v comms=%v best=%v\n", p.Path, p.NextHop, p.Communities, p.Best)
		}
		return sb.String()
	}
	checked := 0
	var arena propagate.RouteArena
	for _, h := range hosts {
		for _, allPaths := range []bool{false, true} {
			b := newASBackend(e, h.ASN, owners, allPaths)
			for _, p := range sample {
				got, err := b.Lookup(p)
				if err != nil {
					t.Fatal(err)
				}
				tr := e.Tree(owners[p])
				arena.Reset()
				var routes []*propagate.VantageRoute
				if allPaths {
					routes = tr.AvailableRoutesFromArena(h.ASN, &arena, nil)
				} else if r := tr.RouteFromArena(h.ASN, &arena); r != nil {
					routes = append(routes, r)
				}
				want := make([]lg.PathInfo, 0, len(routes))
				for i, r := range routes {
					nh := b.RouterID()
					if info := topo.IXPByName(r.ViaIXP); info != nil {
						if a, ok := info.MemberAddr(r.RSSetter); ok {
							nh = a
						}
					}
					want = append(want, lg.PathInfo{Path: r.Path[1:], NextHop: nh, Communities: r.Communities, Best: i == 0})
				}
				if g, w := render(got), render(want); g != w {
					t.Fatalf("AS%s allPaths=%v %s:\n got %s\nwant %s", h.ASN, allPaths, p, g, w)
				}
				checked += len(want)
			}
		}
	}
	if len(hosts) == 0 || checked == 0 {
		t.Fatalf("vacuous: %d hosts, %d paths checked", len(hosts), checked)
	}
}
