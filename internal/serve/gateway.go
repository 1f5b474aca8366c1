package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/churn"
	"mlpeering/internal/topology"
)

// Config parameterizes a gateway.
type Config struct {
	// Topology / Churn configure the world the reconciler churns.
	Topology topology.Config
	Churn    churn.Config
	// Workers sizes the window-close worker pool (0: GOMAXPROCS).
	Workers int
	// MaxInFlight bounds concurrently-served requests; requests over
	// the cap are rejected 429 + Retry-After. 0 disables the cap.
	MaxInFlight int
	// MaxAge is the Cache-Control max-age; 0 serves `no-cache`
	// (always revalidate — correct default while epochs commit every
	// few hundred milliseconds).
	MaxAge time.Duration
	// EpochInterval paces snapshot publication: the reconciler holds
	// each committed window at least this long before the next commit.
	// 0 publishes as fast as windows close.
	EpochInterval time.Duration
	// Logf receives reconciler progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Gateway serves epoch-pinned inference snapshots. The read path is
// lock-free: a request pins the current snapshot with one atomic
// pointer load, bumps one atomic in-flight counter, and writes bytes
// that were either precomputed at publish (epoch, stats, mesh, ixps)
// or append-encoded off the snapshot's link index in O(answer) (link,
// as, ixp) — no mutex, no RWMutex, no map writes. Publication is a
// single atomic pointer swap (RCU): readers that loaded the old
// snapshot finish against it unperturbed.
type Gateway struct {
	cfg Config

	cur      atomic.Pointer[Snapshot]
	inflight atomic.Int64

	ready     chan struct{}
	readyOnce sync.Once

	hdrCacheControl []string

	// testHold, when non-nil, parks every admitted data request until
	// the channel closes — the saturation and drain tests use it to
	// pin requests in flight deterministically. Nil in production.
	testHold <-chan struct{}
}

// New builds a gateway; Run starts its reconciler.
func New(cfg Config) *Gateway {
	cc := "public, no-cache"
	if cfg.MaxAge > 0 {
		cc = fmt.Sprintf("public, max-age=%d, must-revalidate", int(cfg.MaxAge.Seconds()))
	}
	return &Gateway{cfg: cfg, ready: make(chan struct{}), hdrCacheControl: []string{cc}}
}

// Current returns the currently-published snapshot (nil before the
// first commit). One atomic load; safe from any goroutine.
func (g *Gateway) Current() *Snapshot { return g.cur.Load() }

// Ready returns a channel closed when the first snapshot publishes.
func (g *Gateway) Ready() <-chan struct{} { return g.ready }

// publish swaps in the next committed snapshot.
func (g *Gateway) publish(s *Snapshot) {
	g.cur.Store(s)
	g.readyOnce.Do(func() { close(g.ready) })
}

// InFlight reports the number of requests currently admitted.
func (g *Gateway) InFlight() int64 { return g.inflight.Load() }

// Drain blocks until no request is in flight or ctx expires.
func (g *Gateway) Drain(ctx context.Context) error {
	for {
		if g.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Handler returns the gateway's HTTP handler. The router is
// hand-rolled rather than a ServeMux: net/http's mux read-locks its
// pattern table on every request, and the gateway's contract is a
// zero-lock read path.
func (g *Gateway) Handler() http.Handler {
	return http.HandlerFunc(g.serveHTTP)
}

func (g *Gateway) serveHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if r.URL.Path == "/healthz" {
		// Liveness bypasses admission control: load probes must see
		// the process alive even when the data plane is saturated.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		if r.Method != http.MethodHead {
			io.WriteString(w, "ok\n")
		}
		return
	}

	if cap := int64(g.cfg.MaxInFlight); cap > 0 {
		if g.inflight.Add(1) > cap {
			g.inflight.Add(-1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "too many in-flight requests", http.StatusTooManyRequests)
			return
		}
	} else {
		g.inflight.Add(1)
	}
	defer g.inflight.Add(-1)

	if hold := g.testHold; hold != nil {
		<-hold
	}

	s := g.cur.Load()
	if s == nil {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "no snapshot committed yet", http.StatusServiceUnavailable)
		return
	}
	g.serveSnapshot(w, r, s)
}

var hdrJSON = []string{"application/json"}

// The data endpoints.
const (
	epEpoch = iota
	epStats
	epMesh
	epIXPs
	epIXP
	epLink
	epAS
)

// serveSnapshot answers one admitted data request from snapshot s in
// three steps: resolve the query (404/400 for what the snapshot cannot
// answer), settle the conditional — a matching If-None-Match is a 304
// before anything is rendered — and only then produce the body: cached
// bytes for the whole-snapshot endpoints, an O(answer) append-encode
// off the link index for the point queries.
//
//mlplint:allocfree
func (g *Gateway) serveSnapshot(w http.ResponseWriter, r *http.Request, s *Snapshot) {
	var (
		ep   int
		a, b bgp.ASN
		name string
		rows []uint32
	)
	switch path := r.URL.Path; {
	case path == "/v1/epoch":
		ep = epEpoch
	case path == "/v1/stats":
		ep = epStats
	case path == "/v1/mesh":
		ep = epMesh
	case path == "/v1/ixps":
		ep = epIXPs
	case strings.HasPrefix(path, "/v1/ixp/"):
		ep, name = epIXP, path[len("/v1/ixp/"):]
		var ok bool
		if rows, ok = s.index.IXPLinks(name); !ok {
			http.Error(w, "unknown IXP", http.StatusNotFound)
			return
		}
	case path == "/v1/link":
		ep = epLink
		var ok bool
		if a, b, ok = parseLinkQuery(r.URL.RawQuery); !ok {
			http.Error(w, "need numeric a= and b= ASN query parameters", http.StatusBadRequest)
			return
		}
	case strings.HasPrefix(path, "/v1/as/"):
		ep = epAS
		var err error
		if a, err = parseASN(path[len("/v1/as/"):]); err != nil {
			http.Error(w, "bad ASN", http.StatusBadRequest)
			return
		}
	default:
		http.Error(w, "not found", http.StatusNotFound)
		return
	}

	// The validators are the same for every response of an epoch, so
	// their header values are built once per snapshot and shared (keys
	// spelled canonically, as Header.Set would store them).
	h := w.Header()
	h["Etag"] = s.hdrETag
	h["Cache-Control"] = g.hdrCacheControl
	h["Last-Modified"] = s.hdrLastModified
	h["X-Mlp-Epoch"] = s.hdrEpoch

	if etagMatch(r.Header.Get("If-None-Match"), s.ETag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}

	// A body is head+body+tail; only /v1/mesh, whose link array is
	// shared between epochs, has more than the middle part.
	var head, body []byte
	tail := ""
	switch ep {
	case epEpoch:
		body = s.epochJSON
	case epStats:
		body = s.statsJSON
	case epMesh:
		head, body, tail = s.meshHead, s.index.Encoded, "}"
	case epIXPs:
		body = s.ixpsJSON
	case epIXP:
		inf := s.Result.PerIXP[name]
		//mlplint:allocfree the response body: one buffer per request, sized so the encoder never regrows it
		body = make([]byte, 0, ixpBodySize(name, inf, rows))
		body = appendIXP(body, s.Epoch, s.index, name, inf, rows)
	case epLink:
		//mlplint:allocfree the response body: one small buffer per request
		body = make([]byte, 0, 128)
		body = appendLinkLookup(body, s.Epoch, s.Result, a, b)
	case epAS:
		rows = s.index.ASLinks(a)
		//mlplint:allocfree the response body: one buffer per request, sized from the AS's degree
		body = make([]byte, 0, asBodySize(rows))
		body = appendAS(body, s.Epoch, s.index, a, rows)
	}

	h["Content-Type"] = hdrJSON
	// The length differs per response: its one-element value slice is
	// the read path's only allocation besides the body (allocgate.base).
	h.Set("Content-Length", strconv.Itoa(len(head)+len(body)+len(tail)))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		if len(head) > 0 {
			w.Write(head)
		}
		w.Write(body)
		if tail != "" {
			io.WriteString(w, tail)
		}
	}
}

// parseASN parses a decimal AS number.
func parseASN(s string) (bgp.ASN, error) {
	n, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, err
	}
	return bgp.ASN(n), nil
}

// parseLinkQuery reads the a= and b= ASNs of a /v1/link query straight
// off the raw query string — no url.Values map per request. The first
// occurrence of each key counts, as with url.Values.Get; a missing or
// non-decimal value (ASNs never need percent-escapes) fails.
//
//mlplint:allocfree
func parseLinkQuery(raw string) (a, b bgp.ASN, ok bool) {
	var haveA, haveB bool
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		key, val, _ := strings.Cut(pair, "=")
		var err error
		switch {
		case key == "a" && !haveA:
			a, err = parseASN(val)
			haveA = true
		case key == "b" && !haveB:
			b, err = parseASN(val)
			haveB = true
		}
		if err != nil {
			return 0, 0, false
		}
	}
	return a, b, haveA && haveB
}

// etagMatch reports whether an If-None-Match header matches the
// snapshot's strong ETag: `*` matches anything, otherwise any tag in
// the comma-separated list equal to the current tag matches (a weak
// `W/` prefix is stripped first — weak comparison suffices for GET).
//
//mlplint:allocfree
func etagMatch(inm, etag string) bool {
	if inm == "" {
		return false
	}
	if strings.TrimSpace(inm) == "*" {
		return true
	}
	for inm != "" {
		var cand string
		cand, inm, _ = strings.Cut(inm, ",")
		if strings.TrimPrefix(strings.TrimSpace(cand), "W/") == etag {
			return true
		}
	}
	return false
}

// WaitShutdown blocks until ctx is cancelled, then gracefully shuts
// srv down, giving in-flight requests up to drain to finish. It is
// cmd/lgserve's termination path. Returns the shutdown error, if any.
func WaitShutdown(ctx context.Context, srv *http.Server, drain time.Duration) error {
	<-ctx.Done()
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	return srv.Shutdown(sctx)
}
