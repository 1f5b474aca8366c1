package mrt_test

import (
	"bytes"
	"testing"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/collector"
	"mlpeering/internal/mrt"
	"mlpeering/internal/propagate"
	"mlpeering/internal/topology"
)

// TestReadDumpSharesBlocksAtTestScale: in a test-scale world's RIB dump
// every repeated attribute block is its feeder's block in an earlier
// record, so the decoded dump holds exactly one *bgp.PathAttrs per
// distinct block, and each entry's attributes equal an unshared decode
// of its own bytes.
func TestReadDumpSharesBlocksAtTestScale(t *testing.T) {
	topo, err := topology.Generate(topology.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	col := collector.New("rrc-test", propagate.NewEngine(topo, 0), nil, 2)
	var buf bytes.Buffer
	if err := col.WriteRIB(&buf, time.Date(2013, 5, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	archive := bytes.Clone(buf.Bytes())
	d, err := mrt.ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	blocks := mrt.EntryBlocks(archive)
	mrt.CheckAgainstBlocks(t, d, blocks)
	distinct := make(map[string]bool)
	ptrs := make(map[*bgp.PathAttrs]bool)
	entries := 0
	for i, rib := range d.RIBs {
		for j, e := range rib.Entries {
			distinct[string(blocks[i][j])] = true
			ptrs[e.Attrs] = true
			entries++
		}
	}
	if len(ptrs) != len(distinct) {
		t.Fatalf("%d entries, %d distinct attribute blocks, decoded into %d *PathAttrs", entries, len(distinct), len(ptrs))
	}
	if len(distinct) >= entries {
		t.Fatalf("%d entries, %d distinct blocks: the dump repeats no block, so sharing went untested", entries, len(distinct))
	}
}
