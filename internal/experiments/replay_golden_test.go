package experiments_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"maps"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/churn"
	"mlpeering/internal/core"
	"mlpeering/internal/experiments"
	"mlpeering/internal/serve"
	"mlpeering/internal/topology"
)

const (
	replayGoldenFile = "testdata/replay_golden.txt"
	bodiesGoldenFile = "testdata/replay_bodies_golden.txt"
	replayEpochs     = 6
)

// replayGolden replays a test-scale 6-epoch trace of every registered
// scenario through the gateway, the way lgserve serves it, and renders
// two goldens. The first has one line per window: the mesh fingerprint
// and the counters the window carries. The second has one line per
// (window, endpoint): the sha256 of every served body that carries no
// wall-clock field. Those are /v1/mesh, /v1/ixps, /v1/ixp/{name} for
// every IXP, and /v1/as and /v1/link for a sample fixed from the first
// window's mesh.
func replayGolden(t *testing.T) (counters, bodies string) {
	t.Helper()
	var c, b strings.Builder
	c.WriteString("# scenario window fingerprint mesh_links rel_links p2p_rels live_routes stability\n")
	b.WriteString("# scenario window endpoint sha256\n")
	for _, name := range topology.ScenarioNames() {
		cfg := topology.TestConfig()
		cfg.Scenario = name
		ccfg := churn.DefaultConfig(20130501)
		ccfg.Epochs = replayEpochs
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		var g *serve.Gateway
		var paths []string
		epochs := 0
		// Logf runs on the reconciler's goroutine right after each
		// publish, so Current is the epoch the line reports.
		commit := func(format string, args ...any) {
			if !strings.HasPrefix(format, "serve: epoch %d committed") {
				return
			}
			s := g.Current()
			i := epochs
			if epochs++; epochs == replayEpochs {
				cancel()
			}
			checkAttribution(t, fmt.Sprintf("%s window %d", name, i), s.Result)
			fmt.Fprintf(&c, "%s %d %016x %d %d %d %d %s\n", name, i,
				s.Fingerprint, s.Stats.MeshLinks, s.Stats.RelLinks, s.Stats.P2PRels,
				s.Stats.LiveRoutes, strconv.FormatFloat(s.Stats.Stability, 'g', -1, 64))
			if paths == nil {
				paths = bodyPaths(s.Result)
			}
			h := g.Handler()
			for _, p := range paths {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", p, nil))
				if rec.Code != 200 {
					t.Fatalf("%s window %d: GET %s: %d", name, i, p, rec.Code)
				}
				fmt.Fprintf(&b, "%s %d %s %x\n", name, i, p, sha256.Sum256(rec.Body.Bytes()))
			}
		}
		g = serve.New(serve.Config{Topology: cfg, Churn: ccfg, Logf: commit})
		err := g.Run(ctx)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if epochs < replayEpochs {
			t.Fatalf("%s: %d epochs committed, want %d", name, epochs, replayEpochs)
		}
	}
	return c.String(), b.String()
}

// bodyPaths lists the endpoints the bodies golden reads: the mesh, the
// IXP list, every IXP, and eight links spread evenly over the mesh —
// each link's endpoints as /v1/as, the link itself and a pair that is
// no link as /v1/link.
func bodyPaths(res *core.Result) []string {
	out := []string{"/v1/mesh", "/v1/ixps"}
	for _, name := range slices.Sorted(maps.Keys(res.PerIXP)) {
		out = append(out, "/v1/ixp/"+name)
	}
	links := res.BuildIndex().Links
	step := max(1, len(links)/8)
	for i := 0; i < len(links); i += step {
		k := links[i].Key
		other := links[(i+step/2+1)%len(links)].Key.B
		out = append(out,
			fmt.Sprintf("/v1/as/%d", k.A), fmt.Sprintf("/v1/as/%d", k.B),
			fmt.Sprintf("/v1/link?a=%d&b=%d", k.A, k.B),
			fmt.Sprintf("/v1/link?a=%d&b=%d", k.A, other))
	}
	return out
}

// checkAttribution holds a materialized Result against the per-IXP
// reciprocity oracle: each IXP's Covered is strictly ascending by ASN,
// and each link is attributed to exactly the IXPs whose covered filters
// allow it both ways.
func checkAttribution(t *testing.T, what string, res *core.Result) {
	t.Helper()
	want := make(map[bgp.LinkKey][]string)
	for _, name := range slices.Sorted(maps.Keys(res.PerIXP)) {
		x := res.PerIXP[name]
		for i := 1; i < len(x.Covered); i++ {
			if x.Covered[i-1].ASN >= x.Covered[i].ASN {
				t.Fatalf("%s: %s covered AS%d before AS%d: not strictly ascending", what, name, x.Covered[i-1].ASN, x.Covered[i].ASN)
			}
		}
		for i, a := range x.Covered {
			for _, b := range x.Covered[i+1:] {
				if a.Filter.Allows(b.ASN) && b.Filter.Allows(a.ASN) {
					k := bgp.MakeLinkKey(a.ASN, b.ASN)
					want[k] = append(want[k], name)
				}
			}
		}
	}
	if !maps.EqualFunc(res.Links, want, slices.Equal[[]string]) {
		t.Fatalf("%s: attribution map (%d links) differs from the reciprocity oracle (%d links)", what, len(res.Links), len(want))
	}
}

// TestReplayGolden pins the gateway's per-window output on all five
// scenarios to checked-in files: the fingerprint and counters of every
// window, and the sha256 of every sampled body it serves. A refactor of
// the miner, the mesh, the relation oracle, the link index or the body
// encoders that changes one byte a window publishes fails here; the
// body hashes also cover what the fingerprint cannot, such as the
// encoded link array and the AS and IXP rows the bodies are copied
// through. Regenerate with `go test ./internal/experiments -run
// TestReplayGolden -update` only when the output is meant to move.
func TestReplayGolden(t *testing.T) {
	counters, bodies := replayGolden(t)
	experiments.CheckGolden(t, replayGoldenFile, counters)
	experiments.CheckGolden(t, bodiesGoldenFile, bodies)
}
