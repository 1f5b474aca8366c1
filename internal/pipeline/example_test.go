package pipeline_test

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"mlpeering/internal/bgp"
	"mlpeering/internal/core"
	"mlpeering/internal/lg"
	"mlpeering/internal/pipeline"
	"mlpeering/internal/topology"
)

// The full pipeline on a small world with 13 IXPs: passive MRT mining
// plus the active looking-glass survey, its HTTP requests served in
// process without a socket.
func ExampleWorld_RunInference() {
	world, err := pipeline.BuildWorld(topology.TestConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	run, err := world.RunInference(context.Background(), core.DefaultActiveConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("world scenario: %s\n", world.Scenario())
	fmt.Printf("inferred %d multilateral peering links across %d IXPs\n",
		run.Result.TotalLinks(), len(run.Result.PerIXP))
	invisible := 0
	for link := range run.Result.Links {
		if !run.Passive.Links[link] {
			invisible++
		}
	}
	fmt.Printf("%d (%.0f%%) of them are invisible in public BGP paths\n",
		invisible, 100*float64(invisible)/float64(run.Result.TotalLinks()))
	fmt.Printf("the active survey needed %d looking-glass queries\n", run.Active.TotalQueries())

	// One reconstructed export policy.
	x := run.Result.PerIXP["DE-CIX"]
	for _, m := range x.Covered {
		if f := m.Filter; len(f.Peers) > 0 {
			fmt.Printf("at DE-CIX, AS%s announces via the RS with policy %s over %d peers\n", m.ASN, f.Mode, len(f.Peers))
			break
		}
	}
	// Output:
	// world scenario: baseline
	// inferred 2404 multilateral peering links across 13 IXPs
	// 2078 (86%) of them are invisible in public BGP paths
	// the active survey needed 1017 looking-glass queries
	// at DE-CIX, AS1029 announces via the RS with policy ALL+EXCLUDE over 5 peers
}

// The §4.1 looking-glass survey with no passive data at all, its cost
// counted in queries like equation (1), after one summary asked over a
// real loopback socket as a browser or curl would.
func ExampleWorld_LGEndpoints() {
	world, err := pipeline.BuildWorld(topology.TestConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	defer world.Close()
	if err := world.StartLGs(); err != nil {
		fmt.Println(err)
		return
	}
	overSocket := &lg.Client{BaseURL: world.BaseURL() + "/rs/DE-CIX"}
	peers, err := overSocket.Summary(context.Background())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("DE-CIX's RS looking glass lists %d route-server peers over the socket\n", len(peers))

	dict, err := world.Dictionary()
	if err != nil {
		fmt.Println(err)
		return
	}
	cfg := core.DefaultActiveConfig()
	cfg.SkipPassiveCovered = false
	res, err := core.RunActive(context.Background(), dict, world.LGEndpoints(0),
		core.NewObservations(), map[bgp.ASN][]bgp.Prefix{}, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	names := make([]string, 0, len(res.QueriesPerIXP))
	for n := range res.QueriesPerIXP {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Printf("%-10s %8s %8s %8s\n", "IXP", "queries", "members", "covered")
	total := 0
	for _, n := range names {
		fmt.Printf("%-10s %8d %8d %8d\n", n, res.QueriesPerIXP[n], res.MembersQueried[n], len(res.Obs.Setters(n)))
		total += res.QueriesPerIXP[n]
	}
	fmt.Printf("total cost c = %d queries (1 summary + |A_RS| neighbor queries + prefix lookups per IXP)\n", total)
	// The §4.3 multiplicity sort: one prefix query covers several members.
	if mult := res.PrefixMultiplicity["DE-CIX"]; len(mult) > 0 {
		fmt.Printf("best single DE-CIX prefix covered %d members in one query\n", slices.Max(slices.Collect(maps.Values(mult))))
	}
	fmt.Printf("links inferred from active data alone: %d\n", core.InferLinks(dict, res.Obs).TotalLinks())
	// Output:
	// DE-CIX's RS looking glass lists 44 route-server peers over the socket
	// IXP         queries  members  covered
	// AMS-IX            0        0        0
	// BIX.BG          110        6        6
	// DE-CIX          190       44       44
	// DTEL-IX          92        9        9
	// ECIX             83       10       10
	// France-IX         0        0        0
	// LINX              0        0        0
	// LONAP             0        0        0
	// MSK-IX          174       42       42
	// PLIX             70       25       25
	// SPB-IX          119        9        9
	// STHIX             0        0        0
	// TOP-IX           15        6        6
	// total cost c = 853 queries (1 summary + |A_RS| neighbor queries + prefix lookups per IXP)
	// best single DE-CIX prefix covered 4 members in one query
	// links inferred from active data alone: 1633
}

// The §5.1 validation: confirm inferred links against third-party
// looking glasses using up to six distant prefixes per link, then score
// the inference against the generator's ground truth, which the paper
// could never observe.
func ExampleWorld_Validator() {
	world, err := pipeline.BuildWorld(topology.TestConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	run, err := world.RunInference(context.Background(), core.DefaultActiveConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := world.Validator(run).Validate(context.Background(), run.Result)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("inferred %d links; %d validation looking glasses\n",
		run.Result.TotalLinks(), len(world.Topo.ValidationLGs))
	fmt.Printf("LG validation: tested %d links, confirmed %d (%.1f%%; paper: 98.4%%)\n",
		res.Tested, res.Confirmed, 100*res.ConfirmedFraction())
	allPaths, bestPath := 0, 0
	for _, o := range res.PerLG {
		switch {
		case o.Tested == 0:
		case o.AllPaths:
			allPaths++
		default:
			bestPath++
		}
	}
	fmt.Printf("LGs used: %d all-paths, %d best-path-only\n", allPaths, bestPath)

	tp, fp, truthTotal := 0, 0, 0
	for _, info := range world.Topo.IXPs {
		truth := world.Topo.GroundTruthMLPLinks(info.Name)
		truthTotal += len(truth)
		for _, link := range run.Result.IXPLinks(info.Name) {
			if truth[link] {
				tp++
			} else {
				fp++
			}
		}
	}
	fmt.Printf("ground truth: %d true RS peerings across IXPs\n", truthTotal)
	// Reciprocity is conservative by design, and asymmetric peerings are
	// knowingly missed (§4.4).
	fmt.Printf("precision %.3f (%d TP, %d FP), recall %.3f\n",
		float64(tp)/float64(tp+fp), tp, fp, float64(tp)/float64(truthTotal))
	// Output:
	// inferred 2404 links; 16 validation looking glasses
	// LG validation: tested 525 links, confirmed 508 (96.8%; paper: 98.4%)
	// LGs used: 10 all-paths, 5 best-path-only
	// ground truth: 3420 true RS peerings across IXPs
	// precision 0.996 (2534 TP, 9 FP), recall 0.741
}
