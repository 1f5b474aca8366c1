// Command mlpexperiments reproduces every table and figure of the
// paper's evaluation on a freshly generated world and prints them.
//
// Usage:
//
//	mlpexperiments [-scale 0.3] [-seed 20130501] [-scenario baseline]
//	mlpexperiments -churn [-churn-epochs 6] [-churn-interval 10m]
//	    [-cpuprofile F] [-memprofile F]
//
// A flag set outside its mode exits non-zero instead of being ignored.
package main

import (
	"flag"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mlpeering/internal/churn"
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
	cpuProfile := flag.String("cpuprofile", "", "churn mode: write a CPU profile covering only the windowed replay (world and trace build excluded) to this file")
	memProfile := flag.String("memprofile", "", "churn mode: write a post-replay heap profile to this file")
	flag.Parse()
	// A churn-only flag without -churn would do nothing: refuse it,
	// naming it.
	churnOnly := map[string]bool{"churn-epochs": true, "churn-interval": true, "cpuprofile": true, "memprofile": true}
	flag.Visit(func(f *flag.Flag) {
		if churnOnly[f.Name] && !*churnMode {
			log.Fatalf("-%s=%s only applies with -churn", f.Name, f.Value)
		}
	})

	cfg := topology.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Scenario = *scenario

	if *churnMode {
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
		res, err := ct.Run()
		if err != nil {
			log.Fatal(err)
		}
		res.Render().Render(os.Stdout)
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
