package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mlpeering/internal/collector"
	"mlpeering/internal/mrt"
	"mlpeering/internal/propagate"
	"mlpeering/internal/topology"
)

// sweepScenarios are the worlds the two "once" rules are pinned on:
// the four paper-shaped scenarios at test scale and the synthetic
// scaled-world at a small scale.
func sweepScenarios() []topology.Config {
	var out []topology.Config
	for _, sc := range []string{"baseline", "remote-peering", "multi-ixp-hybrid", "pari-noise"} {
		cfg := topology.TestConfig()
		cfg.Scenario = sc
		out = append(out, cfg)
	}
	cfg := topology.TestConfig()
	cfg.Scenario = "scaled-world"
	cfg.Scale = 0.3
	return append(out, cfg)
}

// TestSharedSweepEqualsStandalone: the one sweep of a world build feeds
// the RS-RIB builder and the RIB-dump writer exactly what each gets
// from a sweep of its own, for any sweep width. Every sweep is
// GOMAXPROCS wide, so that is what varies.
func TestSharedSweepEqualsStandalone(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, cfg := range sweepScenarios() {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", cfg.Scenario, workers), func(t *testing.T) {
				runtime.GOMAXPROCS(workers)
				var archive bytes.Buffer
				w, err := buildWorld(cfg, func(sink io.Writer) io.Writer {
					return io.MultiWriter(sink, &archive)
				})
				if err != nil {
					t.Fatal(err)
				}

				want := propagate.BuildRSRIBs(w.Engine, 0)
				if len(want) == 0 || !reflect.DeepEqual(w.RSRIBs, want) {
					t.Errorf("RSRIBs of the shared sweep differ from standalone BuildRSRIBs (%d IXPs)", len(want))
				}

				var alone bytes.Buffer
				if err := collector.New("rrc-synth", w.Engine, nil, 0).WriteRIB(&alone, Timestamp); err != nil {
					t.Fatal(err)
				}
				if alone.Len() == 0 || !bytes.Equal(archive.Bytes(), alone.Bytes()) {
					t.Errorf("RIB archive of the shared sweep (%d bytes) differs from standalone WriteRIB (%d bytes)",
						archive.Len(), alone.Len())
				}
				dump, err := mrt.ReadDump(&alone)
				if err != nil {
					t.Fatal(err)
				}
				if len(w.Dumps) != 1 || !reflect.DeepEqual(w.Dumps[0], dump) {
					t.Error("dump decoded through the pipe differs from the decoded standalone archive")
				}
			})
		}
	}
}

// failAfter fails every write once n bytes went through.
type failAfter struct {
	w   io.Writer
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n < len(p) {
		return 0, f.err
	}
	f.n -= len(p)
	return f.w.Write(p)
}

// TestRIBWriteErrorMidSweep: a write error in the middle of the shared
// sweep is the build's error, named as the rib-archive stage's, and the
// build returns instead of hanging on the pipe.
func TestRIBWriteErrorMidSweep(t *testing.T) {
	boom := errors.New("disk full")
	_, err := buildWorld(topology.TestConfig(), func(sink io.Writer) io.Writer {
		return &failAfter{w: sink, n: 300 << 10, err: boom}
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "rib-archive stage") {
		t.Fatalf("err = %v, want the rib-archive stage wrapping %q", err, boom)
	}
}
