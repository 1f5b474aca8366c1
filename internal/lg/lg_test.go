package lg

import (
	"context"
	"fmt"
	"net/http/httptest"
	"net/netip"
	"slices"
	"testing"

	"mlpeering/internal/bgp"
)

// fakeBackend is a scripted Backend. NeighborRoutes refuses a hidden
// address and one it holds no routes for, as a route server does; with
// no peers and no routes it answers as an AS looking glass.
type fakeBackend struct {
	asn    bgp.ASN
	peers  []PeerSummary
	routes map[netip.Addr][]bgp.Prefix
	hidden map[netip.Addr]bool
	paths  map[bgp.Prefix][]PathInfo
}

func (fakeBackend) RouterID() netip.Addr     { return netip.MustParseAddr("172.16.0.1") }
func (b fakeBackend) LocalASN() bgp.ASN      { return b.asn }
func (b fakeBackend) Summary() []PeerSummary { return b.peers }

func (b fakeBackend) NeighborRoutes(addr netip.Addr) ([]bgp.Prefix, error) {
	if b.hidden[addr] {
		return nil, fmt.Errorf("lg: %% Queries for this neighbor are disabled")
	}
	ps, ok := b.routes[addr]
	if !ok {
		return nil, fmt.Errorf("lg: %% No such neighbor %s", addr)
	}
	return ps, nil
}

func (b fakeBackend) Lookup(p bgp.Prefix) ([]PathInfo, error) { return b.paths[p], nil }

// testRS is a route server of three members, each announcing one
// prefix; the first member's route carries communities. A hidden
// member is left out of the summary and refuses neighbor queries.
func testRS(hidden []bgp.ASN) fakeBackend {
	b := fakeBackend{
		asn:    6695,
		routes: make(map[netip.Addr][]bgp.Prefix),
		hidden: make(map[netip.Addr]bool),
		paths:  make(map[bgp.Prefix][]PathInfo),
	}
	for i, m := range []bgp.ASN{8359, 5410, 196615} {
		addr := netip.AddrFrom4([4]byte{172, 16, 1, byte(3 + i)})
		p := bgp.MustPrefix(fmt.Sprintf("30.%d.0.0/16", i+1))
		b.routes[addr] = []bgp.Prefix{p}
		pi := PathInfo{Path: []bgp.ASN{m, 1001}, NextHop: addr, Best: true}
		if i == 0 {
			pi.Communities = bgp.Communities{bgp.MakeCommunity(6695, 6695), bgp.MakeCommunity(0, 5410)}
		}
		b.paths[p] = []PathInfo{pi}
		if slices.Contains(hidden, m) {
			b.hidden[addr] = true
			continue
		}
		b.peers = append(b.peers, PeerSummary{Addr: addr, ASN: m, PfxCount: 1})
	}
	return b
}

func TestServerRejectsBadQueries(t *testing.T) {
	srv := NewServer()
	srv.Mount("rs", testRS(nil))
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
	srv := NewServer()
	srv.Mount("rs", testRS(nil))
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
