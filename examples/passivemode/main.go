// Passive mode: the §4.2 workflow over MRT archives on disk. The
// example writes collector archives the way Route Views / RIPE RIS
// publish them, then runs ONLY the passive half of the pipeline over
// the files — no looking-glass queries at all.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"mlpeering/internal/collector"
	"mlpeering/internal/core"
	"mlpeering/internal/irr"
	"mlpeering/internal/mrt"
	"mlpeering/internal/propagate"
	"mlpeering/internal/topology"
)

func main() {
	log.SetFlags(0)

	cfg := topology.TestConfig()
	topo, err := topology.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	engine := propagate.NewEngine(topo, 0)

	// 1. Archive the collector view to disk (TABLE_DUMP_V2 + BGP4MP).
	dir, err := os.MkdirTemp("", "mlp-passive")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	col := collector.New("rrc00", engine, nil, 4)
	ts := time.Date(2013, 5, 1, 0, 0, 0, 0, time.UTC)
	ribPath := filepath.Join(dir, "bview.20130501.mrt")
	updPath := filepath.Join(dir, "updates.20130501.mrt")
	if err := col.WriteRIBFile(ribPath, ts); err != nil {
		log.Fatal(err)
	}
	if err := col.WriteUpdatesFile(updPath, ts, collector.UpdateOptions{
		Churn: 100, TransientPaths: 10, PoisonedPaths: 5, BogonPaths: 5, Seed: 7,
	}); err != nil {
		log.Fatal(err)
	}
	fi, _ := os.Stat(ribPath)
	fmt.Printf("archived RIB dump: %s (%d bytes)\n", ribPath, fi.Size())

	// 2. Read the archives back, exactly as a downloader would.
	dump, err := mrt.ReadDumpFile(ribPath)
	if err != nil {
		log.Fatal(err)
	}
	updates, err := mrt.ReadUpdatesFile(updPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read %d RIB records from %d collector peers, %d updates\n",
		len(dump.RIBs), len(dump.Index.Peers), len(updates))

	// 3. Build the dictionary from IXP documentation and the IRR.
	reg := irr.Build(topo, cfg.Seed+1)
	var sites []core.WebsiteData
	for _, info := range topo.IXPs {
		s := core.WebsiteData{Name: info.Name, Scheme: info.Scheme, PublishesMemberList: info.PublishesMemberList}
		if info.PublishesMemberList {
			s.PublishedRSMembers = info.SortedRSMembers()
		}
		sites = append(sites, s)
	}
	dict, err := core.BuildDictionary(sites, reg)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Passive inference.
	passive, err := core.RunPassive([]*mrt.Dump{dump}, updates, dict)
	if err != nil {
		log.Fatal(err)
	}
	result := core.InferLinks(dict, passive.Obs)

	fmt.Printf("hygiene filters dropped: %d bogon, %d cycle, %d transient paths\n",
		passive.Dropped.Bogon, passive.Dropped.Cycle, passive.Dropped.Transient)
	fmt.Printf("withdrawal churn: %d withdrawn prefixes (%d withdrawn-only updates)\n",
		passive.Withdrawals, passive.WithdrawnOnlyUpdates)
	fmt.Printf("passively covered setters per IXP:\n")
	for _, name := range passive.Obs.IXPs() {
		fmt.Printf("  %-10s %d setters\n", name, len(passive.Obs.Setters(name)))
	}
	fmt.Printf("links inferred from passive data alone: %d\n", result.TotalLinks())
	fmt.Println("(compare with the quickstart example: active queries multiply coverage)")
}
