package propagate

import "mlpeering/internal/bgp"

const (
	routeChunk = 256
	hopChunk   = 4096
)

// RouteArena slab-allocates reconstructed vantage routes and their path
// storage: every route a Tree reconstructs lives in one. Chunks are
// never grown in place, so routes handed out earlier stay valid until
// Reset. Not safe for concurrent use.
//
// Routes reconstructed into an arena share the engine's community
// slices instead of cloning them; callers must treat every field as
// read-only.
type RouteArena struct {
	routes [][]VantageRoute
	ri     int
	hops   [][]bgp.ASN
	hi     int
}

// Reset rewinds the arena, invalidating every route it handed out while
// keeping the allocated chunks for reuse.
func (a *RouteArena) Reset() {
	for i := range a.routes {
		a.routes[i] = a.routes[i][:0]
	}
	for i := range a.hops {
		a.hops[i] = a.hops[i][:0]
	}
	a.ri, a.hi = 0, 0
}

// newRoute carves one zeroed VantageRoute.
func (a *RouteArena) newRoute() *VantageRoute {
	if a.ri == len(a.routes) {
		a.routes = append(a.routes, make([]VantageRoute, 0, routeChunk))
	}
	cur := a.routes[a.ri]
	if len(cur) == cap(cur) {
		a.ri++
		return a.newRoute()
	}
	cur = cur[:len(cur)+1]
	a.routes[a.ri] = cur
	r := &cur[len(cur)-1]
	*r = VantageRoute{}
	return r
}

// pathSlice carves a zero-length path slice with capacity at least n.
func (a *RouteArena) pathSlice(n int) []bgp.ASN {
	if a.hi == len(a.hops) {
		c := hopChunk
		if n > c {
			c = n
		}
		a.hops = append(a.hops, make([]bgp.ASN, 0, c))
	}
	cur := a.hops[a.hi]
	if len(cur)+n > cap(cur) {
		a.hi++
		return a.pathSlice(n)
	}
	s := cur[len(cur) : len(cur) : len(cur)+n]
	a.hops[a.hi] = cur[:len(cur)+n]
	return s
}
