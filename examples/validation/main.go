// Validation: reproduce the §5.1 methodology — confirm inferred links
// against third-party looking glasses using up to six geographically
// distant prefixes per link — and, because the world is synthetic,
// additionally score the inference against the generator's ground
// truth, which the paper could never observe.
package main

import (
	"context"
	"fmt"
	"log"

	"mlpeering/internal/core"
	"mlpeering/internal/pipeline"
	"mlpeering/internal/topology"
)

func main() {
	log.SetFlags(0)

	world, err := pipeline.BuildWorld(topology.TestConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	run, err := world.RunInference(context.Background(), core.DefaultActiveConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inferred %d links; validating against %d looking glasses...\n",
		run.Result.TotalLinks(), len(world.Topo.ValidationLGs))

	v := world.Validator(run)
	res, err := v.Validate(context.Background(), run.Result)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LG validation: tested %d links, confirmed %d (%.1f%%; paper: 98.4%%)\n",
		res.Tested, res.Confirmed, 100*res.ConfirmedFraction())

	allPaths, bestPath := 0, 0
	for _, o := range res.PerLG {
		if o.Tested == 0 {
			continue
		}
		if o.AllPaths {
			allPaths++
		} else {
			bestPath++
		}
	}
	fmt.Printf("LGs used: %d all-paths, %d best-path-only\n", allPaths, bestPath)

	// Ground-truth scoring (impossible with real measurement data).
	truePositives, falsePositives := 0, 0
	truthTotal := 0
	for _, info := range world.Topo.IXPs {
		truth := world.Topo.GroundTruthMLPLinks(info.Name)
		truthTotal += len(truth)
		for _, link := range run.Result.IXPLinks(info.Name) {
			if truth[link] {
				truePositives++
			} else {
				falsePositives++
			}
		}
	}
	fmt.Printf("ground truth: %d true RS peerings across IXPs\n", truthTotal)
	fmt.Printf("precision %.3f (%d TP, %d FP) — reciprocity is conservative by design\n",
		float64(truePositives)/float64(truePositives+falsePositives), truePositives, falsePositives)
	fmt.Printf("recall vs all true links %.3f (asymmetric peerings are knowingly missed, §4.4)\n",
		float64(truePositives)/float64(truthTotal))
}
