package core_test

import (
	"testing"

	"mlpeering/internal/core"
	"mlpeering/internal/pipeline"
	"mlpeering/internal/topology"
)

// TestRunPassiveEqualsPerRowReference: attribution once per community
// shape yields exactly what attributing every row did, on the collector
// archives of every scenario.
func TestRunPassiveEqualsPerRowReference(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		scale    float64
	}{
		{"baseline", 0.12}, {"remote-peering", 0.12}, {"multi-ixp-hybrid", 0.12},
		{"pari-noise", 0.12}, {"scaled-world", 0.3},
	} {
		t.Run(tc.scenario, func(t *testing.T) {
			cfg := topology.TestConfig()
			cfg.Scenario, cfg.Scale = tc.scenario, tc.scale
			w, err := pipeline.BuildWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dict, err := w.Dictionary()
			if err != nil {
				t.Fatal(err)
			}
			if len(w.Dumps) == 0 || len(w.Dumps[0].RIBs) == 0 || len(w.Updates) == 0 {
				t.Fatal("world has no archives to mine")
			}
			if diff := core.PassiveDiffFromReference(w.Dumps, w.Updates, dict); diff != "" {
				t.Fatalf("RunPassive differs from the per-row reference: %s", diff)
			}
		})
	}
}
