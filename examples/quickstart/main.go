// Quickstart: generate a small synthetic Internet with 13 IXPs, run the
// full multilateral-peering inference pipeline (passive MRT mining plus
// the active looking-glass survey, HTTP requests served in process
// without a socket), and print what it found.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"mlpeering/internal/core"
	"mlpeering/internal/pipeline"
	"mlpeering/internal/topology"
)

func main() {
	log.SetFlags(0)
	scenario := flag.String("scenario", "baseline", "world scenario (one of: "+
		strings.Join(topology.ScenarioNames(), ", ")+")")
	flag.Parse()

	// A small, fully deterministic world (~0.12x paper scale).
	cfg := topology.TestConfig()
	cfg.Scenario = *scenario
	world, err := pipeline.BuildWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()
	fmt.Printf("world scenario: %s\n", world.Scenario())

	run, err := world.RunInference(context.Background(), core.DefaultActiveConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("inferred %d multilateral peering links across %d IXPs\n",
		run.Result.TotalLinks(), len(run.Result.PerIXP))

	invisible := 0
	for link := range run.Result.Links {
		if !run.Passive.Links[link] {
			invisible++
		}
	}
	fmt.Printf("%d (%.0f%%) of them are invisible in public BGP paths\n",
		invisible, 100*float64(invisible)/float64(run.Result.TotalLinks()))
	fmt.Printf("the active survey needed %d looking-glass queries\n", run.Active.TotalQueries())

	// Show one reconstructed export policy.
	for _, name := range []string{"DE-CIX"} {
		x := run.Result.PerIXP[name]
		for _, m := range x.Covered {
			f := x.Filters[m]
			if len(f.Peers) > 0 {
				fmt.Printf("example: at %s, AS%s announces via the RS with policy %s over %d peers\n",
					name, m, f.Mode, len(f.Peers))
				break
			}
		}
	}
}
