package lg

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"slices"
	"sync/atomic"
	"testing"

	"mlpeering/internal/bgp"
)

// transportProbe is one request the equivalence test sends to one
// mounted looking glass.
type transportProbe struct{ name, command string }

// TestTransportMatchesListener serves looking glasses the way the
// pipeline mounts them — route servers, one with a hidden member, and
// AS looking glasses — and asks each the same questions over a loopback
// listener and over the in-process transport: summary, neighbor routes
// of a member, of a hidden member and of an unknown address, a present
// and a missing prefix, and a malformed command. Status and body must
// match, and clients driven the same way on both sides count the same
// queries.
func TestTransportMatchesListener(t *testing.T) {
	srv := NewServer()
	var probes []transportProbe
	unknown := netip.MustParseAddr("203.0.113.99")
	missing := bgp.MustPrefix("203.0.113.0/24")
	for i, hidden := range [][]bgp.ASN{{8359}, nil} {
		b := testRS(hidden)
		name := fmt.Sprintf("rs/IX-%d", i)
		srv.Mount(name, b)
		shown := b.Summary()[0]
		present := b.routes[shown.Addr][0]
		probes = append(probes,
			transportProbe{name, "show ip bgp summary"},
			transportProbe{name, "show ip bgp neighbors " + shown.Addr.String() + " routes"},
			transportProbe{name, "show ip bgp neighbors " + unknown.String() + " routes"},
			transportProbe{name, "show ip bgp " + present.String()},
			transportProbe{name, "show ip bgp " + missing.String()},
			transportProbe{name, "show version"},
		)
		for addr := range b.hidden {
			probes = append(probes, transportProbe{name, "show ip bgp neighbors " + addr.String() + " routes"})
		}
	}
	rs := testRS(nil)
	for _, asn := range []bgp.ASN{8359, 5410} {
		b := fakeBackend{asn: asn, paths: rs.paths}
		name := "as/" + asn.String()
		srv.Mount(name, b)
		present := slices.SortedFunc(maps.Keys(b.paths), bgp.ComparePrefixes)[0]
		probes = append(probes,
			transportProbe{name, "show ip bgp summary"},
			transportProbe{name, "show ip bgp neighbors " + unknown.String() + " routes"},
			transportProbe{name, "show ip bgp " + present.String()},
			transportProbe{name, "show ip bgp " + missing.String()},
			transportProbe{name, "show ip bgp"},
			transportProbe{name, "ping 10.0.0.1"},
		)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wire := ts.Client()
	inProc := &http.Client{Transport: srv.Transport()}
	get := func(hc *http.Client, base string, p transportProbe) (int, string) {
		t.Helper()
		resp, err := hc.Get(base + "/" + p.name + "?q=" + url.QueryEscape(p.command))
		if err != nil {
			t.Fatalf("%s %q: %v", p.name, p.command, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %q: %v", p.name, p.command, err)
		}
		return resp.StatusCode, string(body)
	}
	statuses := make(map[int]int)
	for _, p := range probes {
		wantCode, wantBody := get(wire, ts.URL, p)
		gotCode, gotBody := get(inProc, "http://lg.invalid", p)
		if gotCode != wantCode || gotBody != wantBody {
			t.Fatalf("%s %q: in process %d %q, listener %d %q", p.name, p.command, gotCode, gotBody, wantCode, wantBody)
		}
		statuses[wantCode]++
	}
	if statuses[http.StatusOK] == 0 || statuses[http.StatusBadRequest] == 0 {
		t.Fatalf("probes answered %v: want both successes and refusals", statuses)
	}

	// The survey's client, driven the same way over both transports.
	ctx := context.Background()
	for _, name := range slices.Sorted(maps.Keys(srv.backends)) {
		wc := &Client{BaseURL: ts.URL + "/" + name, HTTPClient: wire}
		ic := &Client{BaseURL: "http://lg.invalid/" + name, HTTPClient: inProc}
		for _, c := range []*Client{wc, ic} {
			_, _ = c.Summary(ctx)
			_, _ = c.NeighborRoutes(ctx, unknown)
			_, _ = c.Lookup(ctx, missing)
		}
		if wc.QueryCount() != ic.QueryCount() || wc.QueryCount() != 3 {
			t.Fatalf("%s: query counts %d (listener) and %d (in process), want 3", name, wc.QueryCount(), ic.QueryCount())
		}
	}
}

// countingBackend counts every call into the backend it wraps.
type countingBackend struct {
	Backend
	calls *atomic.Int64
}

func (b countingBackend) Summary() []PeerSummary {
	b.calls.Add(1)
	return b.Backend.Summary()
}

func (b countingBackend) NeighborRoutes(addr netip.Addr) ([]bgp.Prefix, error) {
	b.calls.Add(1)
	return b.Backend.NeighborRoutes(addr)
}

func (b countingBackend) Lookup(p bgp.Prefix) ([]PathInfo, error) {
	b.calls.Add(1)
	return b.Backend.Lookup(p)
}

// TestTransportCancelledContext: a request whose context is done comes
// back as that context's error, and the backend is never asked.
func TestTransportCancelledContext(t *testing.T) {
	var calls atomic.Int64
	srv := NewServer()
	srv.Mount("rs", countingBackend{testRS(nil), &calls})
	c := &Client{BaseURL: "http://lg.invalid/rs", HTTPClient: &http.Client{Transport: srv.Transport()}}

	if _, err := c.Summary(context.Background()); err != nil || calls.Load() != 1 {
		t.Fatalf("live request: err %v, %d backend calls", err, calls.Load())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Summary(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request: err %v, want context.Canceled", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://lg.invalid/rs?q=show+ip+bgp+summary", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := srv.Transport().RoundTrip(req); resp != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RoundTrip of a cancelled request = %v, %v", resp, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("cancelled requests reached the backend: %d calls", calls.Load())
	}
}
