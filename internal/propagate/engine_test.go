package propagate

import (
	"sort"
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
	"mlpeering/internal/topology"
)

// buildWorld assembles a small hand-wired topology:
//
//	    T1 ---- T2          (tier-1 clique, p2p)
//	   /  \       \
//	  P1   P2      P3       (transit, customers of tier-1s)
//	 /  \    \    /  \
//	A    B    C  D    E     (stubs)
//
// P1, P2, P3 and C are RS members of IXP "TIX" (RS ASN 6695).
// P1 bilaterally peers with P3 as well.
// Export filters: P1 excludes C; others open. Imports open.
func buildWorld() *topology.Topology {
	t := &topology.Topology{
		ASes:          make(map[bgp.ASN]*topology.AS),
		RSPolicies:    make(map[string]map[bgp.ASN]topology.RSPolicy),
		BilateralIXP:  make(map[bgp.LinkKey][]string),
		MemberLGs:     make(map[string][]topology.LGHost),
		PrefixRegions: make(map[bgp.Prefix]ixp.Region),
	}
	add := func(asn bgp.ASN, tier topology.Tier) *topology.AS {
		as := &topology.AS{ASN: asn, Tier: tier, Region: ixp.RegionWestEU}
		t.ASes[asn] = as
		t.Order = append(t.Order, asn)
		return as
	}
	const (
		T1 bgp.ASN = 10
		T2 bgp.ASN = 20
		P1 bgp.ASN = 100
		P2 bgp.ASN = 200
		P3 bgp.ASN = 300
		A  bgp.ASN = 1001
		B  bgp.ASN = 1002
		C  bgp.ASN = 1003
		D  bgp.ASN = 1004
		E  bgp.ASN = 1005
	)
	add(T1, topology.Tier1)
	add(T2, topology.Tier1)
	add(P1, topology.Tier2)
	add(P2, topology.Tier2)
	add(P3, topology.Tier2)
	for _, s := range []bgp.ASN{A, B, C, D, E} {
		add(s, topology.TierStub)
	}
	sort.Slice(t.Order, func(i, j int) bool { return t.Order[i] < t.Order[j] })

	link := func(c, p bgp.ASN) {
		t.ASes[c].Providers = append(t.ASes[c].Providers, p)
		t.ASes[p].Customers = append(t.ASes[p].Customers, c)
	}
	peer := func(a, b bgp.ASN) {
		t.ASes[a].Peers = append(t.ASes[a].Peers, b)
		t.ASes[b].Peers = append(t.ASes[b].Peers, a)
	}
	peer(T1, T2)
	link(P1, T1)
	link(P2, T1)
	link(P3, T2)
	link(A, P1)
	link(B, P1)
	link(C, P2)
	link(D, P3)
	link(E, P3)
	peer(P1, P3) // bilateral private peering

	for _, as := range t.ASes {
		sort.Slice(as.Providers, func(i, j int) bool { return as.Providers[i] < as.Providers[j] })
		sort.Slice(as.Customers, func(i, j int) bool { return as.Customers[i] < as.Customers[j] })
		sort.Slice(as.Peers, func(i, j int) bool { return as.Peers[i] < as.Peers[j] })
	}

	// Prefixes: one per AS, 30.<idx>.0.0/16.
	for i, asn := range t.Order {
		p := bgp.MustPrefix("30." + itoa(i) + ".0.0/16")
		t.ASes[asn].Prefixes = []bgp.Prefix{p}
		t.PrefixRegions[p] = ixp.RegionWestEU
	}

	scheme := ixp.StandardScheme(6695)
	info := &ixp.Info{
		Name:                "TIX",
		Region:              ixp.RegionWestEU,
		Scheme:              scheme,
		Members:             []bgp.ASN{P1, P2, P3, C},
		RSMembers:           []bgp.ASN{P1, P2, P3, C},
		HasLG:               true,
		PublishesMemberList: true,
		Transparent:         true,
	}
	t.IXPs = append(t.IXPs, info)

	exp := map[bgp.ASN]ixp.ExportFilter{
		P1: ixp.NewExportFilter(ixp.ModeAllExcept, C),
		P2: ixp.OpenFilter(),
		P3: ixp.OpenFilter(),
		C:  ixp.OpenFilter(),
	}
	pols := make(map[bgp.ASN]topology.RSPolicy)
	for m, f := range exp {
		cs, err := f.Communities(&info.Scheme)
		if err != nil {
			panic(err)
		}
		pols[m] = topology.RSPolicy{Export: f, Import: ixp.OpenFilter(), Comms: cs}
	}
	t.RSPolicies["TIX"] = pols
	return t
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// hopOf returns asn's hop in tr: how asn reaches the destination and at
// what AS-hop distance (the zero hop, ClassNone, for an AS the engine
// does not know). On a swept tree it panics like RouteFromArena for an
// AS whose route the sweep did not compute.
func hopOf(tr *Tree, asn bgp.ASN) hop {
	i, ok := tr.e.idx[asn]
	if !ok {
		return hop{}
	}
	return tr.hopAt(i)
}

func TestPhase1CustomerRoutes(t *testing.T) {
	topo := buildWorld()
	e := NewEngine(topo, 0)
	tr := e.Tree(1001) // stub A, customer of P1

	if hopOf(tr, 100).class != ClassCustomer {
		t.Fatalf("P1 class = %v", hopOf(tr, 100).class)
	}
	if hopOf(tr, 10).class != ClassCustomer {
		t.Fatalf("T1 class = %v", hopOf(tr, 10).class)
	}
	if d := hopOf(tr, 10).dist; d != 2 {
		t.Fatalf("T1 dist = %d", d)
	}
	path := routeFrom(tr, 10).Path
	if len(path) != 3 || path[0] != 10 || path[1] != 100 || path[2] != 1001 {
		t.Fatalf("T1 path = %v", path)
	}
	if hopOf(tr, 1001).class != ClassOrigin {
		t.Fatal("origin class")
	}
}

func TestPeerAndProviderClasses(t *testing.T) {
	topo := buildWorld()
	e := NewEngine(topo, 0)
	tr := e.Tree(1001) // origin A under P1

	// T2 hears A via its peer T1 (peer class, one hop across the clique).
	if hopOf(tr, 20).class != ClassPeer {
		t.Fatalf("T2 class = %v", hopOf(tr, 20).class)
	}
	// B (stub under P1) hears via provider.
	if hopOf(tr, 1002).class != ClassProvider {
		t.Fatalf("B class = %v", hopOf(tr, 1002).class)
	}
	// E under P3: P3 has peer routes (bilateral with P1 and RS);
	// E gets a provider route through P3.
	if hopOf(tr, 1005).class != ClassProvider {
		t.Fatalf("E class = %v", hopOf(tr, 1005).class)
	}
	path := routeFrom(tr, 1005).Path
	if path[0] != 1005 || path[len(path)-1] != 1001 {
		t.Fatalf("E path = %v", path)
	}
}

func TestValleyFree(t *testing.T) {
	topo := buildWorld()
	e := NewEngine(topo, 0)
	// Destination D (stub under P3). P1 hears via bilateral peer P3 or
	// the RS. P2 must NOT hear via P1 (peer routes don't propagate to
	// peers), only via the RS exporter P3 or via T1 -> T2 -> P3 if RS
	// filtering blocked it.
	tr := e.Tree(1004)
	r := routeFrom(e.Tree(1004), 200)
	if r == nil {
		t.Fatal("P2 has no route to D")
	}
	// P2 is an open RS member; P3 exports D to the RS; so P2's best is
	// the RS peer route P2-P3-D.
	if r.Class != ClassPeer || r.ViaIXP != "TIX" {
		t.Fatalf("P2 route = %+v", r)
	}
	wantPath := []bgp.ASN{200, 300, 1004}
	for i, a := range wantPath {
		if r.Path[i] != a {
			t.Fatalf("P2 path = %v", r.Path)
		}
	}
	// The vantage path of T1 must go down through its customer... T1
	// hears D as customer route? No: D is not in T1's cone. T1 hears
	// from peer T2 (T2's customer P3 originates the path up).
	if hopOf(tr, 10).class != ClassPeer {
		t.Fatalf("T1 class = %v", hopOf(tr, 10).class)
	}
}

func TestRSFilterBlocksExcludedMember(t *testing.T) {
	topo := buildWorld()
	e := NewEngine(topo, 0)
	// Destination A (cone of P1). P1 exports to RS but excludes C.
	tr := e.Tree(1001)

	// C's route must not be the RS route via P1: it falls back to its
	// provider P2 (provider class).
	r := routeFrom(tr, 1003)
	if r == nil {
		t.Fatal("C unreachable")
	}
	if r.Class == ClassPeer {
		t.Fatalf("C got an RS route despite being excluded: %+v", r)
	}
	// P3 however hears A over the RS from P1 — or over the bilateral
	// link; both are peer class length 3; bilateral via=100 equals RS
	// via=100... the engine prefers the bilateral edge only for
	// PrefersBilateral ASes; both candidates have via P1, the first
	// offered (bilateral phase runs first) wins.
	r3 := routeFrom(tr, 300)
	if r3 == nil || r3.Class != ClassPeer {
		t.Fatalf("P3 route = %+v", r3)
	}
}

func TestRSCommunitiesVisibleAtImporter(t *testing.T) {
	topo := buildWorld()
	e := NewEngine(topo, 0)
	tr := e.Tree(1001) // origin A, exporter P1 (excludes C)

	r := routeFrom(tr, 200) // P2 imports from RS
	if r == nil || r.ViaIXP != "TIX" {
		t.Fatalf("P2 route = %+v", r)
	}
	if r.RSSetter != 100 {
		t.Fatalf("RS setter = %v", r.RSSetter)
	}
	want, _ := bgp.ParseCommunities("6695:6695 0:1003")
	if !r.Communities.Equal(want) {
		t.Fatalf("communities = %v, want %v", r.Communities, want)
	}
}

func TestCommunityStripping(t *testing.T) {
	topo := buildWorld()
	// P2 strips communities on export; its customer C must not see them.
	topo.ASes[200].StripsCommunities = true
	e := NewEngine(topo, 0)
	tr := e.Tree(1001)

	rC := routeFrom(tr, 1003) // C hears via provider P2
	if rC == nil {
		t.Fatal("C unreachable")
	}
	if rC.Class != ClassProvider {
		t.Fatalf("C class = %v", rC.Class)
	}
	if len(rC.Communities) != 0 {
		t.Fatalf("communities leaked through stripping AS: %v", rC.Communities)
	}

	// P2 itself (the importer) still sees them.
	rP2 := routeFrom(tr, 200)
	if len(rP2.Communities) == 0 {
		t.Fatal("importer must see communities")
	}
}

func TestCommunitiesPropagateDownstream(t *testing.T) {
	topo := buildWorld()
	e := NewEngine(topo, 0)
	tr := e.Tree(1001)

	// C hears A via provider P2 whose best route is the RS route; P2
	// does not strip, so C sees P1's RS communities.
	rC := routeFrom(tr, 1003)
	if rC == nil || rC.Class != ClassProvider {
		t.Fatalf("C route = %+v", rC)
	}
	if rC.ViaIXP != "TIX" || rC.RSSetter != 100 {
		t.Fatalf("RS metadata lost downstream: %+v", rC)
	}
	want, _ := bgp.ParseCommunities("6695:6695 0:1003")
	if !rC.Communities.Equal(want) {
		t.Fatalf("C communities = %v", rC.Communities)
	}
}

func TestExporters(t *testing.T) {
	topo := buildWorld()
	e := NewEngine(topo, 0)

	// Destination A: only P1 has A in its cone among RS members.
	exp := e.Tree(1001).Exporters("TIX")
	if len(exp) != 1 || exp[0] != 100 {
		t.Fatalf("exporters = %v", exp)
	}
	// Destination C (a member itself, under P2): C and P2 both export.
	exp = e.Tree(1003).Exporters("TIX")
	if len(exp) != 2 || exp[0] != 200 || exp[1] != 1003 {
		t.Fatalf("exporters = %v", exp)
	}
	if e.Tree(1001).Exporters("NOPE") != nil {
		t.Fatal("unknown IXP must have no exporters")
	}
}

func TestAvailableRoutes(t *testing.T) {
	topo := buildWorld()
	e := NewEngine(topo, 0)
	tr := e.Tree(1004) // destination D under P3

	// At P1: bilateral route via P3, RS route via P3, provider route via
	// T1. The customer-free paths must be found, loops suppressed.
	routes := availableRoutesFrom(tr, 100)
	if len(routes) < 3 {
		t.Fatalf("routes at P1 = %d: %+v", len(routes), routes)
	}
	if !routes[0].Best {
		t.Fatal("first route must be marked best")
	}
	// Best is peer class (bilateral or RS), path length 3.
	if routes[0].Class != ClassPeer || len(routes[0].Path) != 3 {
		t.Fatalf("best at P1 = %+v", routes[0])
	}
	// Provider route via T1 present.
	foundProvider := false
	for _, r := range routes {
		if r.Class == ClassProvider && r.Path[1] == 10 {
			foundProvider = true
		}
		if r.Path[0] != 100 || r.Path[len(r.Path)-1] != 1004 {
			t.Fatalf("malformed path %v", r.Path)
		}
	}
	if !foundProvider {
		t.Fatal("provider alternative missing")
	}

	// At the origin the only route is itself.
	origin := availableRoutesFrom(tr, 1004)
	if len(origin) != 1 || origin[0].Class != ClassOrigin {
		t.Fatalf("origin routes = %+v", origin)
	}
}

func TestPrefersBilateralQuirk(t *testing.T) {
	topo := buildWorld()
	topo.ASes[100].PrefersBilateral = true
	e := NewEngine(topo, 0)
	tr := e.Tree(1004) // D under P3; P1 has bilateral and RS routes via P3

	r := routeFrom(tr, 100)
	if r == nil || r.Class != ClassPeer {
		t.Fatalf("P1 route = %+v", r)
	}
	if !r.Bilateral {
		t.Fatalf("PrefersBilateral not honored: %+v", r)
	}
	// And the available-routes ranking agrees.
	routes := availableRoutesFrom(tr, 100)
	if !routes[0].Bilateral {
		t.Fatalf("ranking disagrees: %+v", routes[0])
	}
}

func TestNonTransparentRS(t *testing.T) {
	topo := buildWorld()
	topo.IXPs[0].Transparent = false
	e := NewEngine(topo, 0)
	tr := e.Tree(1001)

	r := routeFrom(tr, 200)
	if r == nil || r.ViaIXP != "TIX" {
		t.Fatalf("route = %+v", r)
	}
	// Path must contain the RS ASN 6695 between importer and exporter.
	if len(r.Path) != 4 || r.Path[1] != 6695 {
		t.Fatalf("path = %v", r.Path)
	}
}

func TestRSStripsCommunities(t *testing.T) {
	topo := buildWorld()
	topo.IXPs[0].StripsCommunities = true
	e := NewEngine(topo, 0)
	tr := e.Tree(1001)

	r := routeFrom(tr, 200)
	if r == nil || r.ViaIXP != "TIX" {
		t.Fatalf("route should still exist via RS: %+v", r)
	}
	if len(r.Communities) != 0 {
		t.Fatalf("Netnod-style RS leaked communities: %v", r.Communities)
	}
}

func TestForEachTreeCoversAllDestinations(t *testing.T) {
	topo := buildWorld()
	e := NewEngine(topo, 0)
	var got []bgp.ASN
	e.ForEachTree(e.NewVantages(nil), func(tr *Tree) {
		got = append(got, tr.Dest())
	})
	if len(got) != len(topo.Order) {
		t.Fatalf("trees = %d, want %d", len(got), len(topo.Order))
	}
	for i := range got {
		if got[i] != topo.Order[i] {
			t.Fatalf("order violated at %d: %v", i, got[i])
		}
	}
}

func TestTreeUnknownDest(t *testing.T) {
	e := NewEngine(buildWorld(), 0)
	if e.Tree(9999) != nil {
		t.Fatal("unknown destination must return nil")
	}
}

func TestGeneratedWorldPropagates(t *testing.T) {
	topo, err := topology.Generate(topology.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(topo, 0)
	// Every AS must reach a tier-1-originated destination (global
	// reachability sanity).
	var t1 bgp.ASN
	for _, asn := range topo.Order {
		if topo.ASes[asn].Tier == topology.Tier1 {
			t1 = asn
			break
		}
	}
	tr := e.Tree(t1)
	for _, asn := range topo.Order {
		if hopOf(tr, asn).class == ClassNone {
			t.Fatalf("AS%s cannot reach tier-1 %s", asn, t1)
		}
	}

	// And RS communities must be visible somewhere: find an IXP member
	// destination and check at least one other member sees communities.
	info := topo.IXPs[0]
	seen := false
	for _, dst := range info.RSMembers[:10] {
		tr := e.Tree(dst)
		for _, v := range info.RSMembers {
			if v == dst {
				continue
			}
			if r := routeFrom(tr, v); r != nil && len(r.Communities) > 0 {
				seen = true
				break
			}
		}
		if seen {
			break
		}
	}
	if !seen {
		t.Fatal("no RS communities visible anywhere in generated world")
	}
}
