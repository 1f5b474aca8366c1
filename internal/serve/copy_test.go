package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"testing"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/churn"
	"mlpeering/internal/core"
	"mlpeering/internal/ixp"
	"mlpeering/internal/topology"
)

// The gateway serves /v1/as and /v1/ixp by copying runs of the
// snapshot's encoded link array; RenderAS and RenderIXP format every
// link afresh. The tests here hold the copies against both the fresh
// renders and the encoding/json scan oracles, and record which edges
// of the copy path each body went through, so a test whose data stops
// reaching an edge fails instead of passing vacuously.

// Copy-path edges a body can exercise.
const (
	edgeASFirst      = "an /v1/as body holding the mesh's first link"
	edgeASLast       = "an /v1/as body holding the mesh's last link"
	edgeASRun        = "an /v1/as row with consecutive links (one copied run)"
	edgeASGap        = "an /v1/as row with non-consecutive links"
	edgeASNone       = "an /v1/as body of an AS without links"
	edgeIXPFirst     = "an /v1/ixp body holding the mesh's first link"
	edgeIXPLast      = "an /v1/ixp body holding the mesh's last link"
	edgeIXPMulti     = "an /v1/ixp body holding a multi-IXP link"
	edgeIXPAlternate = "an /v1/ixp row alternating single- and multi-IXP links at consecutive indices"
	edgeIXPNone      = "an /v1/ixp body of an IXP without links"
)

// oracleASBodies is oracleAS for every endpoint of r's links at once:
// one scan and sort, then encoding/json per AS.
func oracleASBodies(t *testing.T, epoch uint64, r *core.Result) map[bgp.ASN]string {
	rows := make(map[bgp.ASN][]oracleLink)
	for _, k := range oracleSortedKeys(r.Links) {
		l := oracleLink{k.A, k.B, r.Links[k]}
		rows[k.A] = append(rows[k.A], l)
		rows[k.B] = append(rows[k.B], l)
	}
	out := make(map[bgp.ASN]string, len(rows))
	for asn, links := range rows {
		out[asn] = oracleASJSON(t, epoch, asn, links)
	}
	return out
}

// checkCopiedBodies requests /v1/ixp for every IXP of s and /v1/as for
// every AS with links (and for unlinked), through h, which must serve
// s, and compares each body with the fresh render and the scan oracle.
// It marks in edges which copy-path edges the bodies went through.
func checkCopiedBodies(t *testing.T, h http.Handler, s *Snapshot, unlinked bgp.ASN, edges map[string]bool) {
	t.Helper()
	x, res := s.index, s.Result
	last := uint32(len(x.Links) - 1)
	check := func(path, direct, oracle string) {
		t.Helper()
		rr := get(t, h, path, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("epoch %d: GET %s = %d", s.Epoch, path, rr.Code)
		}
		if got := rr.Body.String(); got != direct || got != oracle {
			t.Fatalf("epoch %d: %s differs:\n http:   %s\n render: %s\n oracle: %s", s.Epoch, path, got, direct, oracle)
		}
	}

	for _, name := range x.IXPs {
		rows, _ := x.IXPLinks(name)
		direct, ok := RenderIXP(s.Epoch, res, name)
		if !ok {
			t.Fatalf("epoch %d: RenderIXP(%q) not ok", s.Epoch, name)
		}
		check("/v1/ixp/"+url.PathEscape(name), string(direct), oracleIXP(t, s.Epoch, res, name))
		multi := func(li uint32) bool { return len(x.Links[li].IXPs) > 1 }
		edges[edgeIXPNone] = edges[edgeIXPNone] || len(rows) == 0
		for k, li := range rows {
			edges[edgeIXPFirst] = edges[edgeIXPFirst] || li == 0
			edges[edgeIXPLast] = edges[edgeIXPLast] || li == last
			edges[edgeIXPMulti] = edges[edgeIXPMulti] || multi(li)
			if k > 0 && li == rows[k-1]+1 && multi(li) != multi(rows[k-1]) {
				edges[edgeIXPAlternate] = true
			}
		}
	}

	oracle := oracleASBodies(t, s.Epoch, res)
	oracle[unlinked] = oracleAS(t, s.Epoch, res, unlinked)
	for asn, want := range oracle {
		check(fmt.Sprintf("/v1/as/%d", uint32(asn)), string(RenderAS(s.Epoch, res, asn)), want)
		rows := x.ASLinks(asn)
		edges[edgeASNone] = edges[edgeASNone] || len(rows) == 0
		for k, li := range rows {
			edges[edgeASFirst] = edges[edgeASFirst] || li == 0
			edges[edgeASLast] = edges[edgeASLast] || li == last
			if k > 0 {
				edges[edgeASRun] = edges[edgeASRun] || li == rows[k-1]+1
				edges[edgeASGap] = edges[edgeASGap] || li != rows[k-1]+1
			}
		}
	}
}

func requireEdges(t *testing.T, edges map[string]bool, want ...string) {
	t.Helper()
	for _, e := range want {
		if !edges[e] {
			t.Errorf("data too weak: no %s", e)
		}
	}
}

// TestCopiedBodiesMatchOnChurnTrace replays a real test-scale churn
// trace and, at every window, holds /v1/ixp of every IXP and /v1/as of
// every AS with links, as the gateway serves them, against the fresh
// renders and the scan oracles. A window whose mesh moved copies from
// an encoded link array patched out of the previous window's.
func TestCopiedBodiesMatchOnChurnTrace(t *testing.T) {
	ccfg := churn.DefaultConfig(20130501)
	ccfg.Epochs = 6
	ct := buildTrace(t, topology.TestConfig(), ccfg)
	g := New(Config{})
	h := g.Handler()
	edges := make(map[string]bool)
	var epoch uint64
	err := ct.ReplayWindows(context.Background(), ct.Epochs, 0, func(pw *core.PassiveWindow) {
		epoch++
		s := newSnapshot(g.boot, epoch, ct.Scenario, pw, time.Time{})
		g.publish(s)
		checkCopiedBodies(t, h, s, 0, edges)
	})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != uint64(ct.Epochs) {
		t.Fatalf("replayed %d windows, want %d", epoch, ct.Epochs)
	}
	requireEdges(t, edges, edgeASFirst, edgeASLast, edgeASRun, edgeASGap, edgeASNone,
		edgeIXPFirst, edgeIXPLast, edgeIXPMulti, edgeIXPAlternate, edgeIXPNone)
}

// TestCopiedBodiesEdges serves a hand-built mesh that reaches every
// edge of the copy path: the first and the last link of the mesh in
// both views, an IXP row alternating single- and multi-IXP links at
// consecutive indices (under a name that needs every JSON escape), an
// IXP and an AS without links.
func TestCopiedBodiesEdges(t *testing.T) {
	const a, b, empty = "A-IX", hostileName, "EMPTY-IX"
	attr := map[bgp.LinkKey][]string{
		{A: 1, B: 2}: {a},
		{A: 1, B: 3}: {a, b},
		{A: 1, B: 4}: {a},
		{A: 1, B: 5}: {a, b},
		{A: 1, B: 6}: {a},
		{A: 2, B: 3}: {b},
		{A: 2, B: 5}: {a},
		{A: 3, B: 4}: {a, b},
		{A: 5, B: 6}: {a},
	}
	for _, ixps := range attr {
		slices.Sort(ixps)
	}
	// Members 1-6 are covered everywhere, 6 by active queries alone;
	// each one's filter includes exactly its partners at that IXP, so
	// the reciprocity rule over the filters gives back attr's per-IXP
	// links.
	res := &core.Result{PerIXP: map[string]*core.IXPInference{}, Links: attr}
	for _, name := range []string{a, b, empty} {
		inf := &core.IXPInference{Name: name, Members: []bgp.ASN{1, 2, 3, 4, 5, 6, 7}}
		for m := bgp.ASN(1); m <= 6; m++ {
			src := core.ObsPassive
			if m == 6 {
				src = core.ObsActive
			}
			inf.Covered = append(inf.Covered, core.CoveredSetter{ASN: m, Filter: ixp.NewExportFilter(ixp.ModeNoneExcept), Source: src})
		}
		res.PerIXP[name] = inf
	}
	for k, ixps := range attr {
		for _, name := range ixps {
			c := res.PerIXP[name].Covered // member m is at index m-1
			c[k.A-1].Filter.Peers[k.B], c[k.B-1].Filter.Peers[k.A] = true, true
		}
	}

	g := testGateway(t, res)
	edges := make(map[string]bool)
	checkCopiedBodies(t, g.Handler(), g.Current(), 7, edges)
	requireEdges(t, edges, edgeASFirst, edgeASLast, edgeASRun, edgeASGap, edgeASNone,
		edgeIXPFirst, edgeIXPLast, edgeIXPMulti, edgeIXPAlternate, edgeIXPNone)
}
