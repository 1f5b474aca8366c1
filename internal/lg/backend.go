// Package lg implements looking glasses: HTTP servers that expose
// non-privileged BGP show commands over a web interface and render
// router-style text, plus the scraping client the active inference
// pipeline drives (§4.1). Both the IXP route-server LGs and the
// third-party member LGs of the paper are modeled.
package lg

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"

	"mlpeering/internal/bgp"
	"mlpeering/internal/propagate"
)

// PeerSummary is one row of "show ip bgp summary".
type PeerSummary struct {
	Addr     netip.Addr
	ASN      bgp.ASN
	PfxCount int
}

// PathInfo is one path of a "show ip bgp <prefix>" response.
type PathInfo struct {
	Path        []bgp.ASN // as displayed: the LG's own ASN excluded
	NextHop     netip.Addr
	Communities bgp.Communities
	Best        bool
}

// Backend supplies the data behind one looking glass.
type Backend interface {
	// RouterID identifies the device.
	RouterID() netip.Addr
	// LocalASN is the AS the LG belongs to.
	LocalASN() bgp.ASN
	// Summary lists BGP neighbors ("show ip bgp summary").
	Summary() []PeerSummary
	// NeighborRoutes lists prefixes advertised by the neighbor at addr
	// ("show ip bgp neighbors <addr> routes").
	NeighborRoutes(addr netip.Addr) ([]bgp.Prefix, error)
	// Lookup returns the paths for a prefix ("show ip bgp <prefix>").
	Lookup(prefix bgp.Prefix) ([]PathInfo, error)
}

// RSBackend exposes an IXP route server's RIB: the view behind DE-CIX-
// style IXP looking glasses.
type RSBackend struct {
	rib       *propagate.RSRIB
	perMember map[bgp.ASN][]bgp.Prefix
	members   []PeerSummary
	// Hidden members do not appear in summary output (DTEL-IX restricts
	// queries for members who do not wish to disclose connectivity).
	hidden map[bgp.ASN]bool
}

// NewRSBackend builds a backend over a route server RIB. hidden lists
// members excluded from the summary output.
func NewRSBackend(rib *propagate.RSRIB, hidden []bgp.ASN) *RSBackend {
	b := &RSBackend{
		rib:       rib,
		perMember: make(map[bgp.ASN][]bgp.Prefix),
		hidden:    make(map[bgp.ASN]bool, len(hidden)),
	}
	for _, h := range hidden {
		b.hidden[h] = true
	}
	for p, es := range rib.Entries {
		for _, e := range es {
			b.perMember[e.Member] = append(b.perMember[e.Member], p)
		}
	}
	for _, ps := range b.perMember {
		slices.SortFunc(ps, bgp.ComparePrefixes)
	}
	for _, m := range rib.Members() {
		if b.hidden[m] {
			continue
		}
		addr, ok := rib.IXP.MemberAddr(m)
		if !ok {
			continue
		}
		b.members = append(b.members, PeerSummary{Addr: addr, ASN: m, PfxCount: len(b.perMember[m])})
	}
	return b
}

// RouterID implements Backend.
func (b *RSBackend) RouterID() netip.Addr { return b.rib.IXP.RSAddr }

// LocalASN implements Backend.
func (b *RSBackend) LocalASN() bgp.ASN { return b.rib.IXP.Scheme.RSASN }

// Summary implements Backend.
func (b *RSBackend) Summary() []PeerSummary { return b.members }

// NeighborRoutes implements Backend.
func (b *RSBackend) NeighborRoutes(addr netip.Addr) ([]bgp.Prefix, error) {
	m, ok := b.rib.IXP.MemberByAddr(addr)
	if !ok {
		return nil, fmt.Errorf("lg: %% No such neighbor %s", addr)
	}
	if b.hidden[m] {
		return nil, fmt.Errorf("lg: %% Queries for this neighbor are disabled")
	}
	return b.perMember[m], nil
}

// Lookup implements Backend.
func (b *RSBackend) Lookup(prefix bgp.Prefix) ([]PathInfo, error) {
	es, ok := b.rib.Entries[prefix]
	if !ok {
		return nil, nil
	}
	out := make([]PathInfo, 0, len(es))
	for i, e := range es {
		nh, _ := b.rib.IXP.MemberAddr(e.Member)
		out = append(out, PathInfo{
			Path:        e.Path,
			NextHop:     nh,
			Communities: e.Communities,
			Best:        i == 0,
		})
	}
	return out, nil
}

// ASBackend exposes one AS's BGP view: the third-party and validation
// looking glasses of §4.1 and §5.1.
//
// Route reconstruction is slab-allocated from a per-backend arena, so a
// Lookup result is only valid until the next Lookup on the same
// backend. The LG server renders each response before serving the next
// query, and the survey/validation clients drive every LG sequentially,
// so the contract holds for all in-repo consumers.
type ASBackend struct {
	engine   *propagate.Engine
	asn      bgp.ASN
	sweep    *propagate.Vantages // the AS itself: all a Lookup reads
	owners   map[bgp.Prefix]bgp.ASN
	allPaths bool
	routerID netip.Addr

	mu sync.Mutex
	//mlplint:guardedby mu
	arena propagate.RouteArena
	//mlplint:guardedby mu
	routeBuf []*propagate.VantageRoute
}

// NewASBackend builds a looking glass for the given AS. allPaths
// selects whether the LG displays every available path or only the
// best one (Fig. 8's circles vs triangles).
func NewASBackend(engine *propagate.Engine, asn bgp.ASN, owners map[bgp.Prefix]bgp.ASN, allPaths bool) *ASBackend {
	// Router ID derived from the ASN for determinism.
	id := netip.AddrFrom4([4]byte{10, byte(asn >> 16), byte(asn >> 8), byte(asn)})
	return &ASBackend{
		engine:   engine,
		asn:      asn,
		sweep:    engine.NewVantages([]bgp.ASN{asn}),
		owners:   owners,
		allPaths: allPaths,
		routerID: id,
	}
}

// RouterID implements Backend.
func (b *ASBackend) RouterID() netip.Addr { return b.routerID }

// LocalASN implements Backend.
func (b *ASBackend) LocalASN() bgp.ASN { return b.asn }

// Summary implements Backend. An AS LG reports its neighbors; for the
// inference pipeline only the route-server views matter, so the
// member's own summary lists nothing.
func (b *ASBackend) Summary() []PeerSummary { return nil }

// NeighborRoutes implements Backend.
func (b *ASBackend) NeighborRoutes(addr netip.Addr) ([]bgp.Prefix, error) {
	return nil, fmt.Errorf("lg: %% Command not supported on this looking glass")
}

// Lookup implements Backend. It sweeps the prefix owner's tree over
// the LG's own AS. The returned PathInfos alias the backend's route
// arena and are valid until the next Lookup on this backend.
func (b *ASBackend) Lookup(prefix bgp.Prefix) ([]PathInfo, error) {
	owner, ok := b.owners[prefix]
	if !ok {
		return nil, nil
	}
	var out []PathInfo
	b.engine.ForEachTreeOf(b.sweep, []bgp.ASN{owner}, func(tr *propagate.Tree) {
		b.mu.Lock()
		defer b.mu.Unlock()
		out = b.pathsLocked(tr)
	})
	return out, nil
}

// pathsLocked renders the LG's routes in tr into the backend's arena.
// Caller holds b.mu.
func (b *ASBackend) pathsLocked(tr *propagate.Tree) []PathInfo {
	b.arena.Reset()
	topo := b.engine.Topology()
	var routes []*propagate.VantageRoute
	if b.allPaths {
		routes = tr.AvailableRoutesFromArena(b.asn, &b.arena, b.routeBuf)
		b.routeBuf = routes[:0]
	} else if r := tr.RouteFromArena(b.asn, &b.arena); r != nil {
		if cap(b.routeBuf) == 0 {
			b.routeBuf = make([]*propagate.VantageRoute, 0, 1)
		}
		routes = append(b.routeBuf[:0], r)
	}
	out := make([]PathInfo, 0, len(routes))
	for i, r := range routes {
		// Displayed paths exclude the LG's own ASN, like real routers.
		path := r.Path
		if len(path) > 0 && path[0] == b.asn {
			path = path[1:]
		}
		nh := b.routerID
		if r.ViaIXP != "" {
			if info := topo.IXPByName(r.ViaIXP); info != nil {
				if a, ok := info.MemberAddr(r.RSSetter); ok {
					nh = a
				}
			}
		}
		out = append(out, PathInfo{
			Path:        path,
			NextHop:     nh,
			Communities: r.Communities,
			Best:        i == 0,
		})
	}
	return out
}
