// Active survey: drive the §4.1 looking-glass algorithm against the
// generated world's HTTP looking glasses with the §4.3 cost
// optimizations, and account every query like equations (1)/(2). The
// survey's clients reach the LG server through an in-process transport;
// the example also serves the same looking glasses on a loopback
// listener and asks one of them over the socket, as a browser or curl
// would.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"mlpeering/internal/bgp"
	"mlpeering/internal/core"
	"mlpeering/internal/lg"
	"mlpeering/internal/pipeline"
	"mlpeering/internal/topology"
)

func main() {
	log.SetFlags(0)

	world, err := pipeline.BuildWorld(topology.TestConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()
	if err := world.StartLGs(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("looking glasses served at %s\n", world.BaseURL())
	overSocket := &lg.Client{BaseURL: world.BaseURL() + "/rs/DE-CIX"}
	peers, err := overSocket.Summary(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s/rs/DE-CIX lists %d route-server peers\n", world.BaseURL(), len(peers))

	dict, err := world.Dictionary()
	if err != nil {
		log.Fatal(err)
	}

	// Survey with no passive data at all (equation 1). Its cost is
	// counted in queries, not wall time.
	endpoints := world.LGEndpoints(0)
	empty := core.NewObservations()
	hints := map[bgp.ASN][]bgp.Prefix{}
	cfg := core.DefaultActiveConfig()
	cfg.SkipPassiveCovered = false

	res, err := core.RunActive(context.Background(), dict, endpoints, empty, hints, cfg)
	if err != nil {
		log.Fatal(err)
	}

	names := make([]string, 0, len(res.QueriesPerIXP))
	for n := range res.QueriesPerIXP {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("\n%-10s %8s %8s %10s\n", "IXP", "queries", "members", "covered")
	total := 0
	for _, n := range names {
		covered := len(res.Obs.Setters(n))
		fmt.Printf("%-10s %8d %8d %10d\n", n, res.QueriesPerIXP[n], res.MembersQueried[n], covered)
		total += res.QueriesPerIXP[n]
	}
	fmt.Printf("\ntotal cost c = %d queries (1 summary + |A_RS| neighbor queries + prefix lookups per IXP)\n", total)

	// The multiplicity optimization: show how many members one prefix
	// query covered at once at DE-CIX.
	if mult := res.PrefixMultiplicity["DE-CIX"]; len(mult) > 0 {
		best := 0
		for _, m := range mult {
			if m > best {
				best = m
			}
		}
		fmt.Printf("best single DE-CIX prefix covered %d members in one query (§4.3 sorting)\n", best)
	}

	links := core.InferLinks(dict, res.Obs)
	fmt.Printf("links inferred from active data alone: %d\n", links.TotalLinks())
}
