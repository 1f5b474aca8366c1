// Package experiments reproduces every table and figure of the paper's
// evaluation (§5) plus the quantified claims of §4.3/§4.4/§5.7, each as
// a runner over one generated world. cmd/mlpexperiments prints them
// all; bench_test.go regenerates each on demand.
package experiments

import (
	"context"
	"fmt"

	"mlpeering/internal/bgp"
	"mlpeering/internal/core"
	"mlpeering/internal/pipeline"
	"mlpeering/internal/propagate"
	"mlpeering/internal/relation"
	"mlpeering/internal/topology"
)

// Context is the shared fixture: one world, one full inference run, and
// lazily computed derived datasets.
type Context struct {
	World *pipeline.World
	Run   *pipeline.Run

	validation *core.ValidationResult

	// tracerouteLinks simulates the Ark/DIMES view: links observed on
	// best paths from a set of traceroute vantages, with route-server
	// crossings elided (Ark and DIMES "do not infer links across IXP
	// Route Servers", §5).
	tracerouteLinks map[topology.LinkKey]bool

	// publicP2P is the subset of the public BGP view inferred p2p.
	publicP2P map[topology.LinkKey]bool
}

// NewContext builds a world and runs the full pipeline.
func NewContext(cfg topology.Config) (*Context, error) {
	w, err := pipeline.BuildWorld(cfg)
	if err != nil {
		return nil, err
	}
	run, err := w.RunInference(context.Background(), core.DefaultActiveConfig())
	if err != nil {
		return nil, err
	}
	return &Context{World: w, Run: run}, nil
}

// Close releases the world's listeners.
func (c *Context) Close() error { return c.World.Close() }

// Validation runs (and caches) the §5.1 validation pass.
func (c *Context) Validation() (*core.ValidationResult, error) {
	if c.validation != nil {
		return c.validation, nil
	}
	v := c.World.Validator(c.Run, 0)
	res, err := v.Validate(context.Background(), c.Run.Result)
	if err != nil {
		return nil, err
	}
	c.validation = res
	return res, nil
}

// PublicP2PLinks labels the public link set with the relationship
// inference and returns the p2p subset.
func (c *Context) PublicP2PLinks() map[topology.LinkKey]bool {
	if c.publicP2P != nil {
		return c.publicP2P
	}
	out := make(map[topology.LinkKey]bool)
	rels := c.Run.Passive.Rels
	for link := range c.Run.Passive.Links {
		if rels.Relationship(link.A, link.B) == relation.RelP2P {
			out[link] = true
		}
	}
	c.publicP2P = out
	return out
}

// TracerouteLinks builds the traceroute-derived AS link dataset.
func (c *Context) TracerouteLinks() map[topology.LinkKey]bool {
	if c.tracerouteLinks != nil {
		return c.tracerouteLinks
	}
	links := make(map[topology.LinkKey]bool)
	topo := c.World.Topo

	// Vantages: a deterministic sample of stubs and transits, like the
	// distributed monitor fleets of Ark/DIMES.
	var vantages []bgp.ASN
	for i, asn := range topo.Order {
		as := topo.ASes[asn]
		if as.Tier == topology.TierStub && i%29 == 0 {
			vantages = append(vantages, asn)
		}
		if as.Tier == topology.Tier2 && i%41 == 0 {
			vantages = append(vantages, asn)
		}
	}
	c.World.Engine.ForEachTree(4, func(tr *propagate.Tree) {
		for _, v := range vantages {
			r := tr.RouteFrom(v)
			if r == nil {
				continue
			}
			for i := 0; i+1 < len(r.Path); i++ {
				a, b := r.Path[i], r.Path[i+1]
				// Traceroute does not see the member-member adjacency
				// across a transparent route server.
				if r.ViaIXP != "" && b == r.RSSetter &&
					i+2 < len(r.Path)+1 && pathCrossesRSAt(r, i) {
					continue
				}
				links[topology.MakeLinkKey(a, b)] = true
			}
		}
	})
	c.tracerouteLinks = links
	return links
}

// pathCrossesRSAt reports whether the path edge starting at index i is
// the route-server crossing of the route.
func pathCrossesRSAt(r *propagate.VantageRoute, i int) bool {
	// The RS edge is importer->exporter where exporter == RSSetter.
	return i+1 < len(r.Path) && r.Path[i+1] == r.RSSetter
}

// MemberMLPDegree returns, for every RS member with at least one
// inferred link, its inferred MLP link count.
func (c *Context) MemberMLPDegree() map[bgp.ASN]int {
	deg := make(map[bgp.ASN]int)
	for link := range c.Run.Result.Links {
		deg[link.A]++
		deg[link.B]++
	}
	return deg
}

// IncidentCount counts links in set incident to each AS.
func IncidentCount(set map[topology.LinkKey]bool) map[bgp.ASN]int {
	deg := make(map[bgp.ASN]int)
	for link := range set {
		deg[link.A]++
		deg[link.B]++
	}
	return deg
}

// ixpOrder returns IXPs in the canonical (paper Table 2) order.
func (c *Context) ixpOrder() []string {
	var names []string
	for _, p := range topology.PaperIXPProfiles() {
		if c.World.Topo.IXPByName(p.Name) != nil {
			names = append(names, p.Name)
		}
	}
	// Any extra profiles beyond the paper's 13 keep config order.
	for _, x := range c.World.Topo.IXPs {
		found := false
		for _, n := range names {
			if n == x.Name {
				found = true
				break
			}
		}
		if !found {
			names = append(names, x.Name)
		}
	}
	return names
}

// fmtCount renders n with a trailing asterisk when partial (LINX-style
// connectivity).
func fmtCount(n int, partial bool) string {
	if partial {
		return fmt.Sprintf("%d*", n)
	}
	return fmt.Sprintf("%d", n)
}
