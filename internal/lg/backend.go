// Package lg implements the looking-glass protocol: an HTTP server that
// exposes non-privileged BGP show commands over a web interface and
// renders router-style text from a Backend, plus the scraping client
// the active inference pipeline drives (§4.1). The package knows no
// route data of its own: a Backend supplies it.
package lg

import (
	"net/netip"

	"mlpeering/internal/bgp"
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
