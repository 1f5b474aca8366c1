package lg

import (
	"context"
	"fmt"
	"maps"
	"net/http/httptest"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"mlpeering/internal/bgp"
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

	srv := NewServer()
	srv.Mount("rs", NewRSBackend(rib, nil))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := &Client{BaseURL: ts.URL + "/rs"}
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
	b := NewRSBackend(rib, []bgp.ASN{hidden})
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

	allB := NewASBackend(e, vantage, owners, true)
	bestB := NewASBackend(e, vantage, owners, false)

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

func TestServerRejectsBadQueries(t *testing.T) {
	topo, _, ribs := testWorld(t)
	srv := NewServer()
	srv.Mount("rs", NewRSBackend(ribs[topo.IXPs[0].Name], nil))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := &Client{BaseURL: ts.URL + "/rs"}
	ctx := context.Background()
	if _, err := client.Lookup(ctx, bgp.Prefix{}); err == nil {
		t.Fatal("invalid prefix accepted")
	}
	if _, err := client.NeighborRoutes(ctx, netip.MustParseAddr("203.0.113.99")); err == nil {
		t.Fatal("unknown neighbor accepted")
	}
	// Unknown command.
	if _, err := client.fetch(ctx, "show version"); err == nil {
		t.Fatal("unknown command accepted")
	}
	// Missing query.
	if _, err := client.fetch(ctx, ""); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestLookupMissingPrefix(t *testing.T) {
	topo, _, ribs := testWorld(t)
	srv := NewServer()
	srv.Mount("rs", NewRSBackend(ribs[topo.IXPs[0].Name], nil))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := &Client{BaseURL: ts.URL + "/rs"}
	paths, err := client.Lookup(context.Background(), bgp.MustPrefix("203.0.113.0/24"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 0 {
		t.Fatalf("phantom paths: %+v", paths)
	}
}

func TestParseSummaryTolerance(t *testing.T) {
	text := `BGP router identifier 172.16.0.1, local AS number 6695

Neighbor                V         AS State/PfxRcd
172.16.1.3              4       8359          123
172.16.1.4              4     196615         Idle
junk line
172.16.1.5              4       5410            7
`
	peers, err := parseSummary(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 {
		t.Fatalf("peers = %+v", peers)
	}
	if peers[0].ASN != 8359 || peers[0].PfxCount != 123 {
		t.Fatalf("row 0 = %+v", peers[0])
	}
	if peers[1].ASN != 5410 {
		t.Fatalf("row 1 = %+v", peers[1])
	}
}

func TestParsePrefixResponseFormats(t *testing.T) {
	text := `BGP routing table entry for 30.1.0.0/16
Paths: (2 available, best #1)
  8359 1001
    172.16.1.3 from 172.16.1.3 (172.16.0.1)
      Origin IGP, localpref 100, valid, external, best
      Community: 6695:6695 0:5410
  200 64512 1001
    172.16.1.9 from 172.16.1.9 (172.16.0.1)
      Origin IGP, localpref 100, valid, external
`
	paths, err := parsePrefixResponse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %+v", paths)
	}
	if !paths[0].Best || paths[1].Best {
		t.Fatal("best flags wrong")
	}
	if len(paths[0].Communities) != 2 || paths[0].Communities[0].String() != "6695:6695" {
		t.Fatalf("communities = %v", paths[0].Communities)
	}
	if len(paths[1].Path) != 3 || paths[1].Path[1] != 64512 {
		t.Fatalf("path = %v", paths[1].Path)
	}
	if paths[0].NextHop != netip.MustParseAddr("172.16.1.3") {
		t.Fatalf("next hop = %v", paths[0].NextHop)
	}
}

// TestConcurrentLookupsOneBackend hammers a single mounted AS looking
// glass from many goroutines. The server serializes per-LG requests
// because ASBackend's Lookup results alias its route arena until the
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

	srv := NewServer()
	srv.Mount("as", NewASBackend(e, vantage, owners, true))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := &Client{BaseURL: ts.URL + "/as"}
	want, err := client.Lookup(context.Background(), prefix)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			c := &Client{BaseURL: ts.URL + "/as"}
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
// ASBackend.Lookup to the complete tree: for every AS looking glass of
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
	render := func(ps []PathInfo) string {
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
			b := NewASBackend(e, h.ASN, owners, allPaths)
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
				want := make([]PathInfo, 0, len(routes))
				for i, r := range routes {
					nh := b.RouterID()
					if info := topo.IXPByName(r.ViaIXP); info != nil {
						if a, ok := info.MemberAddr(r.RSSetter); ok {
							nh = a
						}
					}
					want = append(want, PathInfo{Path: r.Path[1:], NextHop: nh, Communities: r.Communities, Best: i == 0})
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
