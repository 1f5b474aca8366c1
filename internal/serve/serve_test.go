package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/churn"
	"mlpeering/internal/core"
	"mlpeering/internal/ixp"
	"mlpeering/internal/topology"
)

// testResult builds a small deterministic inference: DE-CIX with four
// fully-open members (six links) and AMS-IX re-confirming one pair, so
// the fixture exercises multi-IXP attribution.
func testResult(t testing.TB) (*core.Dictionary, *core.Result) {
	t.Helper()
	sites := []core.WebsiteData{
		{
			Name:                "DE-CIX",
			Scheme:              ixp.StandardScheme(6695),
			PublishedRSMembers:  []bgp.ASN{64500, 64501, 64502, 64503},
			PublishesMemberList: true,
		},
		{
			Name:                "AMS-IX",
			Scheme:              ixp.StandardScheme(6777),
			PublishedRSMembers:  []bgp.ASN{64500, 64501, 64504},
			PublishesMemberList: true,
		},
	}
	dict, err := core.BuildDictionary(sites, nil)
	if err != nil {
		t.Fatalf("BuildDictionary: %v", err)
	}
	obs := core.NewObservations()
	open6695, err := bgp.ParseCommunities("6695:6695")
	if err != nil {
		t.Fatalf("ParseCommunities: %v", err)
	}
	open6777, err := bgp.ParseCommunities("6777:6777")
	if err != nil {
		t.Fatalf("ParseCommunities: %v", err)
	}
	for i, asn := range []bgp.ASN{64500, 64501, 64502, 64503} {
		obs.Add("DE-CIX", asn, bgp.MustPrefix(fmt.Sprintf("10.%d.0.0/16", i)), open6695, core.ObsPassive)
	}
	for i, asn := range []bgp.ASN{64500, 64501} {
		obs.Add("AMS-IX", asn, bgp.MustPrefix(fmt.Sprintf("10.%d.0.0/16", i)), open6777, core.ObsPassive)
	}
	return dict, core.InferLinks(dict, obs)
}

// testWindow wraps a result in a PassiveWindow at a fixed instant.
func testWindow(res *core.Result, n int) *core.PassiveWindow {
	start := time.Date(2013, 5, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(n) * 10 * time.Minute)
	return &core.PassiveWindow{
		Start:      start,
		End:        start.Add(10 * time.Minute),
		Announced:  40 + n,
		Withdrawn:  3,
		LiveRoutes: 120,
		RelLinks:   9,
		P2PRels:    7,
		Stability:  1,
		CloseTime:  17 * time.Millisecond,
		Result:     res,
	}
}

// testGateway builds a gateway with one published snapshot at epoch 1.
func testGateway(t testing.TB, res *core.Result) *Gateway {
	t.Helper()
	g := New(Config{MaxInFlight: 64, MaxAge: 0})
	committed := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	g.publish(newSnapshot(g.boot, 1, "test-world", testWindow(res, 0), committed))
	return g
}

func get(t *testing.T, h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// TestGatewayConformance is the table-driven HTTP cache-semantics
// conformance suite from the issue: ETag stability within an epoch,
// ETag change across epochs, If-None-Match → 304 with empty body, and
// the status-code surface (503 pre-publish, 404, 400, 405, healthz).
func TestGatewayConformance(t *testing.T) {
	_, res := testResult(t)

	t.Run("pre-publish 503", func(t *testing.T) {
		g := New(Config{})
		rr := get(t, g.Handler(), "/v1/mesh", nil)
		if rr.Code != http.StatusServiceUnavailable {
			t.Fatalf("pre-publish status = %d, want 503", rr.Code)
		}
		if rr.Header().Get("Retry-After") == "" {
			t.Fatalf("pre-publish 503 missing Retry-After")
		}
	})

	g := testGateway(t, res)
	h := g.Handler()

	first := get(t, h, "/v1/mesh", nil)
	if first.Code != http.StatusOK {
		t.Fatalf("GET /v1/mesh = %d, want 200; body %s", first.Code, first.Body.String())
	}
	etag := first.Header().Get("ETag")
	if etag == "" {
		t.Fatalf("missing ETag")
	}
	if got := first.Header().Get("X-MLP-Epoch"); got != "1" {
		t.Fatalf("X-MLP-Epoch = %q, want 1", got)
	}
	if got := first.Header().Get("Cache-Control"); got != "public, no-cache" {
		t.Fatalf("Cache-Control = %q", got)
	}
	if lm := first.Header().Get("Last-Modified"); lm == "" {
		t.Fatalf("missing Last-Modified")
	} else if _, err := time.Parse(http.TimeFormat, lm); err != nil {
		t.Fatalf("Last-Modified %q not RFC1123 GMT: %v", lm, err)
	}
	if cl := first.Header().Get("Content-Length"); cl != strconv.Itoa(first.Body.Len()) {
		t.Fatalf("Content-Length %q != body %d", cl, first.Body.Len())
	}

	t.Run("etag stable within epoch", func(t *testing.T) {
		for i := 0; i < 3; i++ {
			rr := get(t, h, "/v1/mesh", nil)
			if rr.Header().Get("ETag") != etag {
				t.Fatalf("ETag drifted within epoch: %q vs %q", rr.Header().Get("ETag"), etag)
			}
			if rr.Body.String() != first.Body.String() {
				t.Fatalf("body drifted within epoch")
			}
		}
	})

	t.Run("conditional requests", func(t *testing.T) {
		cases := []struct {
			name string
			inm  string
			want int
		}{
			{"exact match", etag, http.StatusNotModified},
			{"weak match", "W/" + etag, http.StatusNotModified},
			{"star", "*", http.StatusNotModified},
			{"in list", `"nope", ` + etag, http.StatusNotModified},
			{"stale tag", `"e0-0000000000000000"`, http.StatusOK},
			{"garbage", `zzz`, http.StatusOK},
		}
		for _, tc := range cases {
			rr := get(t, h, "/v1/mesh", map[string]string{"If-None-Match": tc.inm})
			if rr.Code != tc.want {
				t.Errorf("%s: status = %d, want %d", tc.name, rr.Code, tc.want)
			}
			if tc.want == http.StatusNotModified {
				if rr.Body.Len() != 0 {
					t.Errorf("%s: 304 carried a body (%d bytes)", tc.name, rr.Body.Len())
				}
				if rr.Header().Get("ETag") != etag {
					t.Errorf("%s: 304 missing ETag", tc.name)
				}
			}
		}
	})

	t.Run("etag changes across epochs", func(t *testing.T) {
		committed := time.Date(2026, 8, 8, 12, 0, 1, 0, time.UTC)
		g.publish(newSnapshot(g.boot, 2, "test-world", testWindow(res, 1), committed))
		rr := get(t, h, "/v1/mesh", map[string]string{"If-None-Match": etag})
		if rr.Code != http.StatusOK {
			t.Fatalf("stale-tag revalidation after epoch bump = %d, want 200", rr.Code)
		}
		if rr.Header().Get("ETag") == etag {
			t.Fatalf("ETag did not change across epochs (same mesh, new epoch)")
		}
		if got := rr.Header().Get("X-MLP-Epoch"); got != "2" {
			t.Fatalf("X-MLP-Epoch = %q, want 2", got)
		}
	})

	t.Run("status surface", func(t *testing.T) {
		cases := []struct {
			method, path string
			want         int
		}{
			{http.MethodGet, "/healthz", http.StatusOK},
			{http.MethodGet, "/v1/epoch", http.StatusOK},
			{http.MethodGet, "/v1/stats", http.StatusOK},
			{http.MethodGet, "/v1/ixps", http.StatusOK},
			{http.MethodGet, "/v1/ixp/DE-CIX", http.StatusOK},
			{http.MethodGet, "/v1/ixp/NO-SUCH", http.StatusNotFound},
			{http.MethodGet, "/v1/link?a=64500&b=64501", http.StatusOK},
			{http.MethodGet, "/v1/link?a=64500", http.StatusBadRequest},
			{http.MethodGet, "/v1/link?a=x&b=y", http.StatusBadRequest},
			{http.MethodGet, "/v1/as/64500", http.StatusOK},
			{http.MethodGet, "/v1/as/banana", http.StatusBadRequest},
			{http.MethodGet, "/v1/nope", http.StatusNotFound},
			{http.MethodPost, "/v1/mesh", http.StatusMethodNotAllowed},
			{http.MethodHead, "/v1/mesh", http.StatusOK},
		}
		for _, tc := range cases {
			req := httptest.NewRequest(tc.method, tc.path, nil)
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			if rr.Code != tc.want {
				t.Errorf("%s %s = %d, want %d", tc.method, tc.path, rr.Code, tc.want)
			}
			if tc.method == http.MethodHead && rr.Body.Len() != 0 {
				t.Errorf("HEAD %s carried a body", tc.path)
			}
		}
	})
}

// TestGatewayByteIdenticalRender pins the acceptance criterion that a
// gateway response body is byte-identical to a direct render of the
// same (epoch, query) against the underlying core.Result.
func TestGatewayByteIdenticalRender(t *testing.T) {
	_, res := testResult(t)
	g := testGateway(t, res)
	h := g.Handler()
	s := g.Current()

	cases := []struct {
		path string
		want []byte
	}{
		{"/v1/mesh", RenderMesh(1, s.Fingerprint, res)},
		{"/v1/link?a=64501&b=64500", RenderLink(1, res, 64501, 64500)},
		{"/v1/as/64500", RenderAS(1, res, 64500)},
	}
	if b, ok := RenderIXP(1, res, "DE-CIX"); ok {
		cases = append(cases, struct {
			path string
			want []byte
		}{"/v1/ixp/DE-CIX", b})
	} else {
		t.Fatalf("RenderIXP(DE-CIX) not ok")
	}
	cases = append(cases, struct {
		path string
		want []byte
	}{"/v1/ixps", RenderIXPList(1, res)})

	for _, tc := range cases {
		rr := get(t, h, tc.path, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", tc.path, rr.Code)
		}
		if rr.Body.String() != string(tc.want) {
			t.Errorf("%s: body differs from direct render:\n http: %s\n core: %s",
				tc.path, rr.Body.String(), tc.want)
		}
	}

	// The rendered mesh must reflect the fixture: six DE-CIX links and
	// the 64500–64501 pair attributed to both IXPs.
	var mesh struct {
		Links []struct {
			A, B uint32
			IXPs []string `json:"ixps"`
		} `json:"links"`
	}
	if err := json.Unmarshal(cases[0].want, &mesh); err != nil {
		t.Fatalf("unmarshal mesh: %v", err)
	}
	if len(mesh.Links) != 6 {
		t.Fatalf("mesh links = %d, want 6", len(mesh.Links))
	}
	if l := mesh.Links[0]; l.A != 64500 || l.B != 64501 || len(l.IXPs) != 2 {
		t.Fatalf("first link = %+v, want 64500-64501 at both IXPs", l)
	}
}

// Test429Backpressure saturates a MaxInFlight=1 gateway with a parked
// request and checks overload requests bounce with 429 + Retry-After
// while /healthz still answers.
func Test429Backpressure(t *testing.T) {
	_, res := testResult(t)
	g := testGateway(t, res)
	hold := make(chan struct{})
	g.cfg.MaxInFlight = 1
	g.testHold = hold
	h := g.Handler()

	started := make(chan struct{})
	done := make(chan *httptest.ResponseRecorder)
	go func() {
		req := httptest.NewRequest(http.MethodGet, "/v1/mesh", nil)
		rr := httptest.NewRecorder()
		close(started)
		h.ServeHTTP(rr, req)
		done <- rr
	}()
	<-started
	for g.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}

	rr := get(t, h, "/v1/mesh", nil)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatalf("429 missing Retry-After")
	}
	if hz := get(t, h, "/healthz", nil); hz.Code != http.StatusOK {
		t.Fatalf("/healthz under saturation = %d, want 200", hz.Code)
	}

	close(hold)
	if first := <-done; first.Code != http.StatusOK {
		t.Fatalf("parked request finished %d, want 200", first.Code)
	}
	if g.InFlight() != 0 {
		t.Fatalf("inflight = %d after drain, want 0", g.InFlight())
	}
	if rr := get(t, h, "/v1/mesh", nil); rr.Code != http.StatusOK {
		t.Fatalf("post-drain status = %d, want 200", rr.Code)
	}
}

// TestGracefulShutdownDrains runs a real http.Server and checks the
// shared WaitShutdown path lets a held in-flight request complete with
// 200 instead of cutting the connection.
func TestGracefulShutdownDrains(t *testing.T) {
	_, res := testResult(t)
	g := testGateway(t, res)
	hold := make(chan struct{})
	g.testHold = hold

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := &http.Server{Handler: g.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, cancel := context.WithCancel(context.Background())
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- WaitShutdown(ctx, srv, 5*time.Second) }()

	type result struct {
		code int
		body string
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/v1/mesh")
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		resCh <- result{code: resp.StatusCode, body: string(b)}
	}()
	for g.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}

	cancel() // SIGINT stand-in: shutdown begins with the request held
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned before in-flight request finished: %v", err)
	default:
	}

	close(hold)
	r := <-resCh
	if r.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", r.err)
	}
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request status = %d, want 200", r.code)
	}
	if want := string(RenderMesh(1, g.Current().Fingerprint, res)); r.body != want {
		t.Fatalf("drained body differs from render")
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("WaitShutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestGatewayEndToEndEpochs runs the real reconciler over a small
// churning world and checks epochs commit, advance strictly past one
// replay cycle, wrap back to epoch 1's mesh, and that the loop exits
// cleanly on cancellation.
// TestRunRefusesMeaninglessSettings pins that Run names a serving
// setting that means nothing and returns before it builds a world: the
// world here is an unknown scenario, so an error about it means Run got
// as far as the build.
func TestRunRefusesMeaninglessSettings(t *testing.T) {
	world := topology.TestConfig()
	world.Scenario = "no-such-scenario"
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative in-flight cap", Config{MaxInFlight: -1}, "in-flight cap -1 is negative"},
		{"negative epoch interval", Config{EpochInterval: -time.Second}, "epoch interval -1s is negative"},
		{"sub-second max-age", Config{MaxAge: 500 * time.Millisecond}, "max-age 500ms is under the one second"},
		{"negative max-age", Config{MaxAge: -time.Second}, "max-age -1s is negative"},
		{"valid settings reach the build", Config{MaxInFlight: 0, EpochInterval: 0, MaxAge: 1500 * time.Millisecond}, "build churn trace"},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Topology = world
			g := New(c.cfg)
			err := g.Run(context.Background())
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Run = %v, want an error naming %q", err, c.want)
			}
			if g.Current() != nil {
				t.Fatal("a refused gateway published a snapshot")
			}
		})
	}
}

func TestGatewayEndToEndEpochs(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end reconciler test skipped in -short")
	}
	ccfg := churn.DefaultConfig(20130501)
	ccfg.Epochs = 3
	g := New(Config{
		Topology:      topology.TestConfig(),
		Churn:         ccfg,
		EpochInterval: 100 * time.Millisecond,
		Logf:          t.Logf,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- g.Run(ctx) }()

	select {
	case <-g.Ready():
	case <-ctx.Done():
		t.Fatal("no snapshot committed before timeout")
	}
	first := g.Current()
	if first.Epoch != 1 {
		t.Fatalf("first snapshot seen at Ready is epoch %d", first.Epoch)
	}

	// Revalidate until a cycle start past the first cycle shows up: a
	// 304 is the same epoch, a 200 must carry a strictly higher one.
	h := g.Handler()
	E := uint64(ccfg.Epochs)
	last, etag := first.Epoch, first.ETag
	deadline := time.After(90 * time.Second)
	for last <= E || last%E != 1 {
		select {
		case <-deadline:
			t.Fatalf("epoch stuck at %d (want a cycle start past %d)", last, E)
		case <-time.After(5 * time.Millisecond):
		}
		rr := get(t, h, "/v1/epoch", map[string]string{"If-None-Match": etag})
		if rr.Code == http.StatusNotModified {
			continue
		}
		if rr.Code != http.StatusOK {
			t.Fatalf("GET /v1/epoch = %d", rr.Code)
		}
		e, err := strconv.ParseUint(rr.Header().Get("X-MLP-Epoch"), 10, 64)
		if err != nil {
			t.Fatalf("bad X-MLP-Epoch: %v", err)
		}
		if e <= last {
			t.Fatalf("a fresh /v1/epoch body at epoch %d after epoch %d", e, last)
		}
		last, etag = e, rr.Header().Get("ETag")
		if last > E && last%E == 1 {
			var body struct{ Fingerprint string }
			if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
				t.Fatal(err)
			}
			if want := fingerprintHex(first.Fingerprint); body.Fingerprint != want {
				t.Fatalf("epoch %d opens a cycle with fingerprint %s, epoch 1's is %s", last, body.Fingerprint, want)
			}
		}
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v after cancel, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

// TestEpochPacingBeforeClose pins where the reconciler waits out
// EpochInterval: after publishing a window and before the replay closes
// the next one, so the next window's index is never built early and
// held through the wait. Consecutive commits are then at least the
// interval plus the later window's close time apart.
func TestEpochPacingBeforeClose(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end reconciler test skipped in -short")
	}
	const interval = 50 * time.Millisecond
	ccfg := churn.DefaultConfig(20130501)
	ccfg.Epochs = 3
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var g *Gateway
	var commits []*Snapshot
	g = New(Config{
		Topology:      topology.TestConfig(),
		Churn:         ccfg,
		EpochInterval: interval,
		// Logf runs on the reconciler right after each publish, so
		// Current is the snapshot just committed.
		Logf: func(format string, _ ...any) {
			if strings.HasPrefix(format, "serve: epoch %d committed") {
				commits = append(commits, g.Current())
				if len(commits) == 7 {
					cancel()
				}
			}
		},
	})
	if err := g.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if len(commits) < 7 {
		t.Fatalf("%d commits before the deadline, want 7", len(commits))
	}
	for i := 1; i < len(commits); i++ {
		prev, cur := commits[i-1], commits[i]
		gap := cur.Committed.Sub(prev.Committed)
		if want := interval + time.Duration(cur.Stats.CloseTimeNS); gap < want {
			t.Errorf("epochs %d -> %d committed %v apart, want at least the interval plus the later close (%v)",
				prev.Epoch, cur.Epoch, gap, want)
		}
	}
}

// TestRunFailsFastOnBuildError pins the reconciler's failure
// semantics: a world or churn schedule that cannot be built is a
// deterministic error, so Run returns it at once — no backoff loop, no
// snapshot, the gateway never reports ready — and lgserve turns that
// into a non-zero exit.
func TestRunFailsFastOnBuildError(t *testing.T) {
	noEpochs, backwards := churn.DefaultConfig(1), churn.DefaultConfig(1)
	noEpochs.Epochs = 0
	backwards.Interval = -5 * time.Minute
	for _, c := range []struct {
		scenario string
		churn    churn.Config
		want     string
	}{
		{"no-such-scenario", churn.DefaultConfig(1), "no-such-scenario"},
		{"baseline", noEpochs, "churn epochs must be at least 1, got 0"},
		{"baseline", backwards, "churn interval must be positive, got -5m0s"},
	} {
		cfg := topology.TestConfig()
		cfg.Scenario = c.scenario
		g := New(Config{Topology: cfg, Churn: c.churn})
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- g.Run(ctx) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Run returned %v, want an error naming %q", err, c.want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Run is still retrying a deterministic build error (%s) after 10s", c.want)
		}
		select {
		case <-g.Ready():
			t.Fatal("gateway reported ready without a world")
		default:
		}
		if rr := get(t, g.Handler(), "/v1/epoch", nil); rr.Code != http.StatusServiceUnavailable {
			t.Fatalf("GET /v1/epoch without a world = %d, want 503", rr.Code)
		}
	}
}

// TestGatewayConcurrentEpochSwap is the race-job test: readers hammer
// every data endpoint — the cached bodies, the index-backed point
// queries, conditional revalidations — while a writer republishes the
// windows of a churned replay over and over, so snapshots sharing a
// Result (and its link index) with their predecessor swap in under the
// readers. Every response must be internally consistent (epoch header
// matches the body's epoch) and per-goroutine epochs never move
// backwards.
func TestGatewayConcurrentEpochSwap(t *testing.T) {
	var windows []core.PassiveWindow
	churnedWindows(t, func(pw *core.PassiveWindow) { windows = append(windows, *pw) })
	committed := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	g := New(Config{MaxInFlight: 64})
	g.publish(NewSnapshot(1, "test-world", &windows[0], committed))
	h := g.Handler()

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		epoch := uint64(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			epoch++
			pw := &windows[int(epoch-1)%len(windows)]
			g.publish(NewSnapshot(epoch, "test-world", pw, committed.Add(time.Duration(epoch)*time.Second)))
		}
	}()

	paths := []string{
		"/v1/epoch", "/v1/as/200", "/v1/link?a=200&b=300", "/v1/mesh", "/v1/ixp/DE-CIX",
		"/v1/stats", "/v1/as/4200000000", "/v1/ixps", "/v1/ixp/" + url.PathEscape(hostileName),
	}
	var readers sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			var etag string
			for i := 0; i < 450; i++ {
				path := paths[(i+r)%len(paths)]
				var hdr map[string]string
				if i%3 == 2 {
					hdr = map[string]string{"If-None-Match": etag}
				}
				rr := get(t, h, path, hdr)
				if rr.Code != http.StatusOK && !(rr.Code == http.StatusNotModified && hdr != nil) {
					errs <- fmt.Errorf("%s: status %d", path, rr.Code)
					return
				}
				etag = rr.Header().Get("ETag")
				e, err := strconv.ParseUint(rr.Header().Get("X-MLP-Epoch"), 10, 64)
				if err != nil {
					errs <- err
					return
				}
				if e < last {
					errs <- fmt.Errorf("stale read: epoch %d after %d", e, last)
					return
				}
				last = e
				if rr.Code == http.StatusNotModified {
					if rr.Body.Len() != 0 {
						errs <- fmt.Errorf("%s: 304 carried a body", path)
						return
					}
					continue
				}
				var body struct {
					Epoch uint64 `json:"epoch"`
				}
				if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
					errs <- fmt.Errorf("%s: %v", path, err)
					return
				}
				if body.Epoch != e {
					errs <- fmt.Errorf("%s: torn snapshot: header epoch %d, body epoch %d", path, e, body.Epoch)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
