package lg

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"

	"mlpeering/internal/bgp"
)

// Server hosts one or more looking glasses under /<name>?q=<command>,
// mimicking the public web frontends the paper's scripts queried.
type Server struct {
	mux      *http.ServeMux
	backends map[string]Backend
}

// NewServer returns an empty LG server.
func NewServer() *Server {
	return &Server{mux: http.NewServeMux(), backends: make(map[string]Backend)}
}

// Mount registers a backend under the given name. Requests to one
// looking glass are served one at a time: backend results may alias
// per-backend buffers that the next query on the same backend recycles
// (an AS looking glass's route arena), so the query and its rendering
// form one critical section. Real LG frontends serialize harder than this —
// they rate-limit to one query per several seconds.
func (s *Server) Mount(name string, b Backend) {
	s.backends[name] = b
	var mu sync.Mutex
	s.mux.HandleFunc("/"+name, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		s.serve(b, w, r)
	})
}

// Handler returns the HTTP handler serving all mounted LGs.
func (s *Server) Handler() http.Handler { return s.mux }

// Transport returns an http.RoundTripper that serves requests from this
// server in process: the request goes straight to the handler, whose
// answer an httptest.ResponseRecorder buffers and hands back as the
// response — the same status, headers and body a listener would send,
// without a socket. The URL's host is never resolved; only its path and
// query are read. A request whose context is already done is not
// served: its error comes back instead.
func (s *Server) Transport() http.RoundTripper { return inProcess{s.mux} }

type inProcess struct{ h http.Handler }

func (t inProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	// The handler sees a server-side copy: ServeMux records the matched
	// pattern on its request, and a RoundTripper must not modify the
	// caller's.
	sreq := *req
	sreq.RequestURI = req.URL.RequestURI()
	if sreq.Body == nil {
		sreq.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, &sreq)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

func (s *Server) serve(b Backend, w http.ResponseWriter, r *http.Request) {
	q := strings.TrimSpace(r.URL.Query().Get("q"))
	if q == "" {
		http.Error(w, "% Missing query", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fields := strings.Fields(q)
	// Accept "show ip bgp ..." with small syntax variations, as real
	// LG frontends do.
	if len(fields) < 3 || fields[0] != "show" || fields[1] != "ip" || fields[2] != "bgp" {
		http.Error(w, "% Unknown command", http.StatusBadRequest)
		return
	}
	rest := fields[3:]
	switch {
	case len(rest) == 0 || rest[0] == "summary":
		renderSummary(w, b)
	case (rest[0] == "neighbors" || rest[0] == "neighbor") && len(rest) >= 3 && rest[2] == "routes":
		addr, err := netip.ParseAddr(rest[1])
		if err != nil {
			http.Error(w, "% Invalid neighbor address", http.StatusBadRequest)
			return
		}
		prefixes, err := b.NeighborRoutes(addr)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		renderRoutes(w, b, prefixes)
	default:
		pfx, err := bgp.ParsePrefix(rest[0])
		if err != nil {
			// Single addresses are accepted and treated as host routes
			// by real LGs; we require explicit prefixes.
			http.Error(w, "% Invalid prefix", http.StatusBadRequest)
			return
		}
		paths, err := b.Lookup(pfx)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		renderPrefix(w, b, pfx, paths)
	}
}

func renderSummary(w http.ResponseWriter, b Backend) {
	fmt.Fprintf(w, "BGP router identifier %s, local AS number %s\n\n", b.RouterID(), b.LocalASN())
	fmt.Fprintf(w, "%-18s %3s %10s %10s\n", "Neighbor", "V", "AS", "State/PfxRcd")
	for _, p := range b.Summary() {
		fmt.Fprintf(w, "%-18s %3d %10s %10d\n", p.Addr, 4, p.ASN, p.PfxCount)
	}
}

func renderRoutes(w http.ResponseWriter, b Backend, prefixes []bgp.Prefix) {
	fmt.Fprintf(w, "BGP table version is 0, local router ID is %s\n", b.RouterID())
	fmt.Fprintf(w, "   %-20s %s\n", "Network", "Next Hop")
	for _, p := range prefixes {
		fmt.Fprintf(w, "*> %-20s %s\n", p, "0.0.0.0")
	}
	fmt.Fprintf(w, "\nTotal number of prefixes %d\n", len(prefixes))
}

func renderPrefix(w http.ResponseWriter, b Backend, pfx bgp.Prefix, paths []PathInfo) {
	if len(paths) == 0 {
		fmt.Fprintf(w, "%% Network not in table\n")
		return
	}
	fmt.Fprintf(w, "BGP routing table entry for %s\n", pfx)
	best := 0
	for i, p := range paths {
		if p.Best {
			best = i + 1
		}
	}
	fmt.Fprintf(w, "Paths: (%d available, best #%d)\n", len(paths), best)
	for _, p := range paths {
		if len(p.Path) == 0 {
			fmt.Fprintf(w, "  Local\n")
		} else {
			fmt.Fprintf(w, "  %s\n", pathString(p.Path))
		}
		fmt.Fprintf(w, "    %s from %s (%s)\n", p.NextHop, p.NextHop, b.RouterID())
		flags := "valid, external"
		if p.Best {
			flags += ", best"
		}
		fmt.Fprintf(w, "      Origin IGP, localpref 100, %s\n", flags)
		if len(p.Communities) > 0 {
			fmt.Fprintf(w, "      Community: %s\n", p.Communities)
		}
	}
}

func pathString(path []bgp.ASN) string {
	var sb strings.Builder
	for i, a := range path {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(a.String())
	}
	return sb.String()
}
