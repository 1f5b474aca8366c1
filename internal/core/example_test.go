package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mlpeering/internal/collector"
	"mlpeering/internal/core"
	"mlpeering/internal/mrt"
	"mlpeering/internal/pipeline"
	"mlpeering/internal/topology"
)

// The §4.2 passive workflow over MRT archives on disk: write collector
// archives the way Route Views and RIPE RIS publish them, read them back
// as a downloader would, and run only the passive half of the pipeline
// over them, with no looking-glass query at all.
func ExampleRunPassive() {
	w, err := pipeline.BuildWorld(topology.TestConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	topo := w.Topo
	dir, err := os.MkdirTemp("", "mlp-passive")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)

	// Archive the collector view: TABLE_DUMP_V2 plus BGP4MP.
	col := collector.New("rrc00", w.Engine, nil, 4)
	ts := time.Date(2013, 5, 1, 0, 0, 0, 0, time.UTC)
	ribPath := filepath.Join(dir, "bview.20130501.mrt")
	updPath := filepath.Join(dir, "updates.20130501.mrt")
	if err := col.WriteRIBFile(ribPath, ts); err != nil {
		fmt.Println(err)
		return
	}
	if err := col.WriteUpdatesFile(updPath, ts, collector.UpdateOptions{
		Churn: 100, TransientPaths: 10, PoisonedPaths: 5, BogonPaths: 5, Seed: 7,
	}); err != nil {
		fmt.Println(err)
		return
	}
	dump, err := mrt.ReadDumpFile(ribPath)
	if err != nil {
		fmt.Println(err)
		return
	}
	updates, err := mrt.ReadUpdatesFile(updPath)
	if err != nil {
		fmt.Println(err)
		return
	}
	fi, err := os.Stat(ribPath)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("archived RIB dump: %s (%d bytes)\n", filepath.Base(ribPath), fi.Size())
	fmt.Printf("read %d RIB records from %d collector peers, %d updates\n",
		len(dump.RIBs), len(dump.Index.Peers), len(updates))

	// The dictionary comes from IXP documentation and the world's IRR.
	var sites []core.WebsiteData
	for _, info := range topo.IXPs {
		s := core.WebsiteData{Name: info.Name, Scheme: info.Scheme, PublishesMemberList: info.PublishesMemberList}
		if info.PublishesMemberList {
			s.PublishedRSMembers = info.SortedRSMembers()
		}
		sites = append(sites, s)
	}
	dict, err := core.BuildDictionary(sites, w.IRR)
	if err != nil {
		fmt.Println(err)
		return
	}
	passive, err := core.RunPassive([]*mrt.Dump{dump}, updates, dict)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("hygiene filters dropped: %d bogon, %d cycle, %d transient paths\n",
		passive.Dropped.Bogon, passive.Dropped.Cycle, passive.Dropped.Transient)
	fmt.Printf("withdrawal churn: %d withdrawn prefixes (%d withdrawn-only updates)\n",
		passive.Withdrawals, passive.WithdrawnOnlyUpdates)
	fmt.Println("passively covered setters per IXP:")
	for _, name := range passive.Obs.IXPs() {
		fmt.Printf("  %-10s %d setters\n", name, len(passive.Obs.Setters(name)))
	}
	// The active survey multiplies this coverage (see pipeline's
	// World.RunInference example).
	fmt.Printf("links inferred from passive data alone: %d\n", core.InferLinks(dict, passive.Obs).TotalLinks())
	// Output:
	// archived RIB dump: bview.20130501.mrt (1914642 bytes)
	// read 3079 RIB records from 21 collector peers, 162 updates
	// hygiene filters dropped: 5 bogon, 5 cycle, 10 transient paths
	// withdrawal churn: 71 withdrawn prefixes (71 withdrawn-only updates)
	// passively covered setters per IXP:
	//   AMS-IX     31 setters
	//   DE-CIX     17 setters
	//   ECIX       3 setters
	//   France-IX  10 setters
	//   LINX       9 setters
	//   LONAP      4 setters
	//   MSK-IX     3 setters
	//   PLIX       6 setters
	//   TOP-IX     3 setters
	// links inferred from passive data alone: 638
}
