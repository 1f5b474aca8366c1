// Command mlpinfer runs the full multilateral-peering inference pipeline
// over a generated world (passive MRT mining, the active looking-glass
// survey over HTTP, reciprocity-based link inference) and prints the
// per-IXP results plus the inferred links.
//
// Usage:
//
//	mlpinfer [-scale 0.3] [-seed 20130501] [-links] [-validate]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"mlpeering/internal/core"
	"mlpeering/internal/pipeline"
	"mlpeering/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mlpinfer: ")

	scale := flag.Float64("scale", 0.3, "world scale (1.0 = paper scale)")
	seed := flag.Int64("seed", 20130501, "generation seed")
	printLinks := flag.Bool("links", false, "print every inferred link")
	validate := flag.Bool("validate", false, "run LG validation (§5.1)")
	flag.Parse()

	cfg := topology.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed

	start := time.Now()
	w, err := pipeline.BuildWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()
	log.Printf("world built in %v", time.Since(start).Round(time.Millisecond))

	start = time.Now()
	run, err := w.RunInference(context.Background(), core.DefaultActiveConfig())
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("inference completed in %v", time.Since(start).Round(time.Millisecond))

	d := run.Passive.Dropped
	fmt.Printf("passive: %d paths kept, dropped %d bogon / %d cycle / %d transient\n",
		run.Passive.Paths.Len(), d.Bogon, d.Cycle, d.Transient)
	fmt.Printf("active:  %d LG queries across %d IXPs\n\n",
		run.Active.TotalQueries(), len(run.Active.QueriesPerIXP))

	fmt.Printf("%-10s %8s %8s %8s %8s\n", "IXP", "RS", "Pasv", "Active", "Links")
	for _, prof := range topology.PaperIXPProfiles() {
		x := run.Result.PerIXP[prof.Name]
		if x == nil {
			continue
		}
		fmt.Printf("%-10s %8d %8d %8d %8d\n",
			prof.Name, len(x.Members), x.PassiveCount(), x.ActiveCount(), len(run.Result.IXPLinks(prof.Name)))
	}
	fmt.Printf("\ntotal: %d distinct links (%d at more than one IXP)\n",
		run.Result.TotalLinks(), run.Result.MultiIXPLinks())

	invisible := 0
	for link := range run.Result.Links {
		if !run.Passive.Links[link] {
			invisible++
		}
	}
	fmt.Printf("invisible in public BGP: %d (%.1f%%)\n",
		invisible, 100*float64(invisible)/float64(run.Result.TotalLinks()))

	if *validate {
		v := w.Validator(run)
		res, err := v.Validate(context.Background(), run.Result)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("validation: tested %d links, confirmed %d (%.1f%%)\n",
			res.Tested, res.Confirmed, 100*res.ConfirmedFraction())
	}

	if *printLinks {
		type row struct{ a, b uint32 }
		var rows []row
		for link := range run.Result.Links {
			rows = append(rows, row{uint32(link.A), uint32(link.B)})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].a != rows[j].a {
				return rows[i].a < rows[j].a
			}
			return rows[i].b < rows[j].b
		})
		for _, r := range rows {
			fmt.Fprintf(os.Stdout, "link AS%d AS%d\n", r.a, r.b)
		}
	}
}
