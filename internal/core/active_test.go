package core

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
	"mlpeering/internal/lg"
)

func TestSampleTargetFractionalRates(t *testing.T) {
	cases := []struct {
		pct      float64
		in, want int
	}{
		// 10%: the paper's rate. 10 * 0.1 is 1.0000000000000002 in
		// float64; the epsilon guard keeps the whole target at 1.
		{0.10, 1, 1}, {0.10, 5, 1}, {0.10, 10, 1}, {0.10, 11, 2},
		{0.10, 100, 10}, {0.10, 2000, 100},
		// 7%: int(0.07*100) happens to survive truncation; ceil agrees.
		{0.07, 100, 7}, {0.07, 101, 8}, {0.07, 15, 2},
		// 29%: int(0.29*100) truncates to 28 and under-samples P'_a;
		// the float ceil keeps the full rate.
		{0.29, 100, 29}, {0.29, 10, 3}, {0.29, 7, 3},
	}
	for _, c := range cases {
		if got := sampleTarget(c.in, c.pct); got != c.want {
			t.Errorf("sampleTarget(%d, pct=%v) = %d, want %d", c.in, c.pct, got, c.want)
		}
	}
}

// fakeLGBackend is a scriptable lg.Backend for survey tests.
type fakeLGBackend struct {
	asn     bgp.ASN
	members []lg.PeerSummary
	routes  map[netip.Addr][]bgp.Prefix
	lookup  func(p bgp.Prefix) ([]lg.PathInfo, error)
}

func (b *fakeLGBackend) RouterID() netip.Addr { return netip.MustParseAddr("192.0.2.1") }
func (b *fakeLGBackend) LocalASN() bgp.ASN    { return b.asn }
func (b *fakeLGBackend) Summary() []lg.PeerSummary {
	return b.members
}
func (b *fakeLGBackend) NeighborRoutes(addr netip.Addr) ([]bgp.Prefix, error) {
	return b.routes[addr], nil
}
func (b *fakeLGBackend) Lookup(p bgp.Prefix) ([]lg.PathInfo, error) { return b.lookup(p) }

// bodyCloseNotifier is a transport that calls fn each time the client
// closes a response body, i.e. has finished reading that response.
type bodyCloseNotifier func()

func (fn bodyCloseNotifier) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		resp.Body = notifyingBody{resp.Body, fn}
	}
	return resp, err
}

type notifyingBody struct {
	io.ReadCloser
	closed func()
}

func (b notifyingBody) Close() error {
	err := b.ReadCloser.Close()
	b.closed()
	return err
}

// TestRunActiveFirstErrorCancelsSiblings pins the failure semantics of
// the parallel LG survey: the first error cancels the in-flight sibling
// surveys, and every survey's partial observations still reach the
// merged result.
//
// Three IXPs run concurrently:
//   - DE-CIX succeeds completely;
//   - MSK-IX collects one observation, then fails — but only after
//     DE-CIX has read its last response, so the success path is
//     deterministic;
//   - ECIX's LG hangs until its request context is cancelled.
func TestRunActiveFirstErrorCancelsSiblings(t *testing.T) {
	mkAddr := func(last byte) netip.Addr { return netip.AddrFrom4([4]byte{172, 16, 0, last}) }
	pfx := func(s string) bgp.Prefix { return bgp.MustPrefix(s) }

	sites := []WebsiteData{
		{Name: "DE-CIX", Scheme: ixp.StandardScheme(6695), PublishesMemberList: true,
			PublishedRSMembers: []bgp.ASN{100, 200}},
		{Name: "MSK-IX", Scheme: ixp.StandardScheme(8631), PublishesMemberList: true,
			PublishedRSMembers: []bgp.ASN{100, 400}},
		{Name: "ECIX", Scheme: ixp.StandardScheme(9033), PublishesMemberList: true,
			PublishedRSMembers: []bgp.ASN{600, 700}},
	}
	dict, err := BuildDictionary(sites, nil)
	if err != nil {
		t.Fatal(err)
	}

	// DE-CIX: two members, one prefix each, both lookups succeed. Once
	// the client has read the second lookup's response the survey makes
	// no further request, so nothing of it is left to cancel; okDone
	// then releases MSK-IX's failing lookup. (Releasing it when the
	// server answers is too early: the cancellation can abort the
	// response read and drop member 200's observation.)
	okDone := make(chan struct{})
	var okLookups atomic.Int32
	var okDoneOnce sync.Once
	okHTTP := &http.Client{Transport: bodyCloseNotifier(func() {
		if okLookups.Load() == 2 {
			okDoneOnce.Do(func() { close(okDone) })
		}
	})}
	okB := &fakeLGBackend{
		asn: 6695,
		members: []lg.PeerSummary{
			{Addr: mkAddr(10), ASN: 100, PfxCount: 1},
			{Addr: mkAddr(20), ASN: 200, PfxCount: 1},
		},
		routes: map[netip.Addr][]bgp.Prefix{
			mkAddr(10): {pfx("10.0.0.0/24")},
			mkAddr(20): {pfx("10.0.1.0/24")},
		},
	}
	okB.lookup = func(p bgp.Prefix) ([]lg.PathInfo, error) {
		setter := bgp.ASN(100)
		if p == pfx("10.0.1.0/24") {
			setter = 200
		}
		okLookups.Add(1)
		return []lg.PathInfo{{Path: []bgp.ASN{setter}, NextHop: mkAddr(99),
			Communities: bgp.Communities{bgp.MakeCommunity(6695, 6695)}, Best: true}}, nil
	}

	// MSK-IX: the lookup for member 100's prefix (sorted first) yields
	// an observation; the second lookup fails once DE-CIX is done and
	// ECIX's request is in flight (slowEntered), so there is something
	// to cancel.
	slowEntered := make(chan struct{})
	var slowEnteredOnce sync.Once
	failB := &fakeLGBackend{
		asn: 8631,
		members: []lg.PeerSummary{
			{Addr: mkAddr(30), ASN: 100, PfxCount: 1},
			{Addr: mkAddr(40), ASN: 400, PfxCount: 1},
		},
		routes: map[netip.Addr][]bgp.Prefix{
			mkAddr(30): {pfx("20.0.0.0/24")},
			mkAddr(40): {pfx("20.0.1.0/24")},
		},
	}
	failB.lookup = func(p bgp.Prefix) ([]lg.PathInfo, error) {
		if p == pfx("20.0.0.0/24") {
			return []lg.PathInfo{{Path: []bgp.ASN{100}, NextHop: mkAddr(99),
				Communities: bgp.Communities{bgp.MakeCommunity(8631, 8631)}, Best: true}}, nil
		}
		<-okDone
		<-slowEntered
		return nil, fmt.Errorf("route server unreachable")
	}

	srv := lg.NewServer()
	srv.Mount("decix", okB)
	srv.Mount("mskix", failB)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// ECIX: hangs until RunActive's cancellation propagates down to the
	// HTTP request. The 10s fallback keeps a broken cancellation path
	// from hanging the test; it fails the assertion instead.
	var slowCancelled atomic.Bool
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		slowEnteredOnce.Do(func() { close(slowEntered) })
		select {
		case <-r.Context().Done():
			slowCancelled.Store(true)
		case <-time.After(10 * time.Second):
		}
		http.Error(w, "% timed out", http.StatusInternalServerError)
	}))
	defer slow.Close()

	lgs := map[string]IXPLGs{
		"DE-CIX": {RS: &lg.Client{BaseURL: ts.URL + "/decix", HTTPClient: okHTTP}},
		"MSK-IX": {RS: &lg.Client{BaseURL: ts.URL + "/mskix"}},
		"ECIX":   {RS: &lg.Client{BaseURL: slow.URL}},
	}
	cfg := DefaultActiveConfig()
	cfg.SkipPassiveCovered = false
	res, err := RunActive(context.Background(), dict, lgs, nil, nil, cfg)
	if err == nil {
		t.Fatal("RunActive returned nil error despite a failing survey")
	}
	if !strings.Contains(err.Error(), "MSK-IX") {
		t.Fatalf("first error should come from MSK-IX, got: %v", err)
	}
	// The client aborts the request on cancellation; the server handler
	// observes it asynchronously, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for !slowCancelled.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !slowCancelled.Load() {
		t.Error("ECIX survey was not cancelled after the first error")
	}
	if res == nil {
		t.Fatal("partial result dropped")
	}
	// The successful survey is fully merged...
	for _, m := range []bgp.ASN{100, 200} {
		if !res.Obs.Covered("DE-CIX", m) {
			t.Errorf("DE-CIX member %d missing from merged observations", m)
		}
	}
	// ...and the failing survey's partial observations survive too.
	if !res.Obs.Covered("MSK-IX", 100) {
		t.Error("MSK-IX partial observation dropped on error")
	}
	if res.QueriesPerIXP["MSK-IX"] == 0 {
		t.Error("MSK-IX query cost dropped on error")
	}
}

// TestRunActiveIgnoresHintOrder pins the member LG survey to the hints'
// content, not their order: with every member's hint list reversed it
// returns the same observations and query counts. Each member
// originates 30 prefixes and the survey samples 3 of them, so a survey
// that walked the hints as given would observe other prefixes.
func TestRunActiveIgnoresHintOrder(t *testing.T) {
	const name = "ECIX"
	members := []bgp.ASN{100, 200}
	hints := make(map[bgp.ASN][]bgp.Prefix)
	origin := make(map[bgp.Prefix]bgp.ASN)
	for _, m := range members {
		for i := range 30 {
			p := bgp.MustPrefix(fmt.Sprintf("10.%d.%d.0/24", m, i))
			hints[m] = append(hints[m], p)
			origin[p] = m
		}
	}
	// The member LG sees every origin's route with its RS community.
	srv := lg.NewServer()
	srv.Mount("member", &fakeLGBackend{asn: 300, lookup: func(p bgp.Prefix) ([]lg.PathInfo, error) {
		return []lg.PathInfo{{Path: []bgp.ASN{origin[p], 300}, NextHop: netip.MustParseAddr("192.0.2.9"),
			Communities: bgp.Communities{bgp.MakeCommunity(9033, 9033)}, Best: true}}, nil
	}})
	survey := func(hints map[bgp.ASN][]bgp.Prefix) *ActiveResult {
		t.Helper()
		dict, err := BuildDictionary([]WebsiteData{{Name: name, Scheme: ixp.StandardScheme(9033),
			PublishesMemberList: true, PublishedRSMembers: members}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		client := &lg.Client{BaseURL: "http://lg.invalid/member", HTTPClient: &http.Client{Transport: srv.Transport()}}
		lgs := map[string]IXPLGs{name: {Members: []MemberLG{{Client: client, Host: 300}}}}
		res, err := RunActive(context.Background(), dict, lgs, nil, hints, DefaultActiveConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	want := survey(hints)
	reversed := make(map[bgp.ASN][]bgp.Prefix, len(hints))
	for m, ps := range hints {
		reversed[m] = slices.Clone(ps)
		slices.Reverse(reversed[m])
	}
	got := survey(reversed)

	for _, m := range members {
		w, g := want.Obs.Prefixes(name, m), got.Obs.Prefixes(name, m)
		if len(w) != 3 {
			t.Fatalf("AS%d: %d observed prefixes, want the 3 sampled", m, len(w))
		}
		if !slices.Equal(g, w) {
			t.Errorf("AS%d: reversed hints observed %v, given order %v", m, g, w)
		}
	}
	if got.QueriesPerIXP[name] != want.QueriesPerIXP[name] || got.MembersQueried[name] != want.MembersQueried[name] {
		t.Errorf("reversed hints cost %d queries over %d members, given order %d over %d",
			got.QueriesPerIXP[name], got.MembersQueried[name], want.QueriesPerIXP[name], want.MembersQueried[name])
	}
}
