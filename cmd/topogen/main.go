// Command topogen generates a synthetic measurement world and writes
// its data artifacts to disk: collector MRT archives (RIB dump and
// update trace), the IRR database in RPSL, the PeeringDB registry as
// JSON, and a topology summary.
//
// Usage:
//
//	topogen -out DIR [-scale 1.0] [-seed 20130501]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"mlpeering/internal/collector"
	"mlpeering/internal/irr"
	"mlpeering/internal/pipeline"
	"mlpeering/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topogen: ")

	out := flag.String("out", "world", "output directory")
	scale := flag.Float64("scale", 1.0, "world scale (1.0 = paper scale; scaled-world grows IXP count with it)")
	seed := flag.Int64("seed", 20130501, "generation seed")
	scenario := flag.String("scenario", "baseline", "world scenario (see -list-scenarios)")
	list := flag.Bool("list-scenarios", false, "list the world scenarios and exit")
	flag.Parse()

	if *list {
		for _, sc := range topology.Scenarios() {
			fmt.Printf("%-18s %s\n", sc.Name, sc.Description)
		}
		return
	}

	cfg := topology.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Scenario = *scenario

	start := time.Now()
	w, err := pipeline.BuildWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()
	topo := w.Topo
	st := topo.Stats()
	log.Printf("built %q world: %d ASes (%d tier-1, %d transit, %d stub), %d IXPs, %d prefixes in %v",
		*scenario, st.ASes, st.Tier1s, st.Transits, st.Stubs, st.IXPs, st.Prefixes, time.Since(start).Round(time.Millisecond))

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	col := collector.New("rrc-synth", w.Engine, nil, 0)
	ribPath := filepath.Join(*out, "rib.mrt")
	if err := col.WriteRIBFile(ribPath, pipeline.Timestamp); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", ribPath)

	updPath := filepath.Join(*out, "updates.mrt")
	updOpts := collector.UpdateOptions{Churn: 500, TransientPaths: 25, PoisonedPaths: 15, BogonPaths: 10, Seed: cfg.Seed + 2}
	if err := col.WriteUpdatesFile(updPath, pipeline.Timestamp.Add(time.Hour), updOpts); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", updPath)

	irrPath := filepath.Join(*out, "irr.rpsl")
	f, err := os.Create(irrPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := irr.WriteObjects(f, w.IRR.Objects()); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d objects)", irrPath, w.IRR.Len())

	pdbPath := filepath.Join(*out, "peeringdb.json")
	if err := w.PDB.SaveFile(pdbPath); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d records)", pdbPath, w.PDB.Len())

	summary := filepath.Join(*out, "SUMMARY.txt")
	sf, err := os.Create(summary)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(sf, "seed=%d scale=%v scenario=%s\n%+v\n\nIXPs:\n", cfg.Seed, cfg.Scale, cfg.Scenario, st)
	for _, info := range topo.IXPs {
		fmt.Fprintf(sf, "  %-10s members=%d rs=%d lg=%v\n",
			info.Name, len(info.Members), len(info.RSMembers), info.HasLG)
	}
	if err := sf.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", summary)
}
