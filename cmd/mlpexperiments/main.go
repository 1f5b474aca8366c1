// Command mlpexperiments reproduces every table and figure of the
// paper's evaluation on a freshly generated world and prints them.
//
// Usage:
//
//	mlpexperiments [-scale 0.3] [-seed 20130501]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mlpeering/internal/churn"
	"mlpeering/internal/core"
	"mlpeering/internal/experiments"
	"mlpeering/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mlpexperiments: ")

	scale := flag.Float64("scale", 0.3, "world scale (1.0 = paper scale; scaled-world grows IXP count with it)")
	seed := flag.Int64("seed", 20130501, "generation seed")
	scenario := flag.String("scenario", "baseline", "world scenario (one of: "+
		strings.Join(topology.ScenarioNames(), ", ")+")")
	churnMode := flag.Bool("churn", false, "run the route-churn dynamics workload (windowed inference) instead of the paper tables")
	churnEpochs := flag.Int("churn-epochs", 6, "churn mode: number of mutation epochs / inference windows")
	churnInterval := flag.Duration("churn-interval", 10*time.Minute, "churn mode: epoch and inference-window duration")
	churnStream := flag.Bool("churn-stream", false, "churn mode: stream windows instead of retaining them (long-horizon replay; prints per-window close stats and a summary)")
	churnWindows := flag.Int("churn-windows", 0, "churn mode with -churn-stream: total windows to replay (0 = one per epoch; extras replay over the final live table)")
	cpuProfile := flag.String("cpuprofile", "", "churn mode: write a CPU profile covering only the windowed replay (world and trace build excluded) to this file")
	memProfile := flag.String("memprofile", "", "churn mode: write a post-replay heap profile to this file")
	flag.Parse()

	cfg := topology.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Scenario = *scenario

	if *churnMode {
		if *churnWindows < 0 {
			log.Fatalf("-churn-windows must not be negative, got %d", *churnWindows)
		}
		ccfg := churn.DefaultConfig(*seed + 11)
		ccfg.Epochs = *churnEpochs
		ccfg.Interval = *churnInterval
		start := time.Now()
		// The trace is built before the profile starts, so -cpuprofile
		// captures exactly the windowed replay, not world generation.
		ct, err := experiments.BuildChurnTrace(cfg, ccfg)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("churn trace ready in %v (scale %v, scenario %s, %d epochs @ %v)",
			time.Since(start).Round(time.Millisecond), *scale, ct.Scenario, ct.Epochs, ct.Interval)
		stopCPU := startCPUProfile(*cpuProfile)
		if *churnStream {
			runChurnStream(ct, *churnWindows)
		} else {
			res, err := ct.Run(core.WindowsIncremental)
			if err != nil {
				log.Fatal(err)
			}
			res.Render().Render(os.Stdout)
		}
		stopCPU()
		writeMemProfile(*memProfile)
		return
	}

	start := time.Now()
	ctx, err := experiments.NewContext(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer ctx.Close()
	log.Printf("world + inference ready in %v (scale %v, scenario %s)",
		time.Since(start).Round(time.Millisecond), *scale, *scenario)

	if err := ctx.RunAll(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// startCPUProfile begins a CPU profile into file (no-op for "") and
// returns the stop function.
func startCPUProfile(file string) func() {
	if file == "" {
		return func() {}
	}
	f, err := os.Create(file)
	if err != nil {
		log.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		log.Fatal(err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("cpu profile written to %s", file)
	}
}

// writeMemProfile writes a post-GC heap profile to file (no-op for "").
func writeMemProfile(file string) {
	if file == "" {
		return
	}
	f, err := os.Create(file)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		log.Fatal(err)
	}
	log.Printf("heap profile written to %s", file)
}

// runChurnStream replays the churn trace in streaming mode: windows are
// handed back one at a time and never retained, so the horizon can run
// far past the mutation epochs at flat memory. Per-window close stats go
// to stdout; a summary of first/second-half close times and the post-GC
// heap follows.
func runChurnStream(ct *experiments.ChurnTrace, windows int) {
	total := windows
	if total <= 0 {
		total = ct.Epochs
	}
	var closes []time.Duration
	var ms runtime.MemStats
	err := ct.StreamWindows(core.WindowsIncremental, windows, 0, func(w *core.PassiveWindow) {
		closes = append(closes, w.CloseTime)
		fmt.Fprintf(os.Stdout, "window %3d: live %6d rels %5d p2p %5d mesh %4d stability %.3f close %v\n",
			len(closes)-1, w.LiveRoutes, w.RelLinks, w.P2PRels, w.MeshLinks, w.Stability,
			w.CloseTime.Round(time.Microsecond))
		if len(closes) == total {
			// Sample while the mining state is still live; after the
			// replay returns it is garbage and the number would only
			// reflect the trace.
			runtime.GC()
			runtime.ReadMemStats(&ms)
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	half := len(closes) / 2
	mean := func(ds []time.Duration) time.Duration {
		if len(ds) == 0 {
			return 0
		}
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		return sum / time.Duration(len(ds))
	}
	log.Printf("streamed %d windows: mean close %v (first half %v, second half %v), live heap %.1f MB",
		len(closes), mean(closes).Round(time.Microsecond),
		mean(closes[:half]).Round(time.Microsecond), mean(closes[half:]).Round(time.Microsecond),
		float64(ms.HeapAlloc)/(1<<20))
}
