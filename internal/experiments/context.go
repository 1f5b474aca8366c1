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
	tracerouteLinks map[bgp.LinkKey]bool

	// publicP2P is the subset of the public BGP view inferred p2p.
	publicP2P map[bgp.LinkKey]bool
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
	v := c.World.Validator(c.Run)
	res, err := v.Validate(context.Background(), c.Run.Result)
	if err != nil {
		return nil, err
	}
	c.validation = res
	return res, nil
}

// PublicP2PLinks labels the public link set with the relationship
// inference and returns the p2p subset.
func (c *Context) PublicP2PLinks() map[bgp.LinkKey]bool {
	if c.publicP2P != nil {
		return c.publicP2P
	}
	out := make(map[bgp.LinkKey]bool)
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
func (c *Context) TracerouteLinks() map[bgp.LinkKey]bool {
	if c.tracerouteLinks != nil {
		return c.tracerouteLinks
	}
	links := make(map[bgp.LinkKey]bool)
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
	eng := c.World.Engine
	// fn runs sequentially and reads each route before the next tree's
	// Reset, so one arena serves the whole sweep.
	var arena propagate.RouteArena
	eng.ForEachTree(eng.NewVantages(vantages), func(tr *propagate.Tree) {
		arena.Reset()
		for _, v := range vantages {
			r := tr.RouteFromArena(v, &arena)
			if r == nil {
				continue
			}
			for i := 0; i+1 < len(r.Path); i++ {
				a, b := r.Path[i], r.Path[i+1]
				// Traceroute does not see the member-member adjacency
				// across a transparent route server: the RS edge is
				// importer -> exporter, the exporter the RS setter.
				if r.ViaIXP != "" && b == r.RSSetter {
					continue
				}
				links[bgp.MakeLinkKey(a, b)] = true
			}
		}
	})
	c.tracerouteLinks = links
	return links
}

// incidentCount counts the links of set incident to each AS; an AS no
// link touches is absent.
func incidentCount[V any](set map[bgp.LinkKey]V) map[bgp.ASN]int {
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
