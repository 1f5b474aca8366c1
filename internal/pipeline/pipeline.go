// Package pipeline assembles the full measurement world end to end:
// synthetic topology → propagation → collector MRT archives, route
// server RIBs, looking glasses answering HTTP requests, IRR and
// PeeringDB registries — and then drives the paper's inference
// algorithm over those data sources exactly as an operator would over
// the real ones. The looking-glass clients speak HTTP and parse the
// router text a real LG prints, but their requests reach the LG server
// through an in-process transport, not a socket; StartLGs adds a
// loopback listener for callers that want one.
package pipeline

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/collector"
	"mlpeering/internal/core"
	"mlpeering/internal/geo"
	"mlpeering/internal/irr"
	"mlpeering/internal/lg"
	"mlpeering/internal/mrt"
	"mlpeering/internal/peeringdb"
	"mlpeering/internal/propagate"
	"mlpeering/internal/topology"
)

// World bundles every substrate for one generated Internet.
type World struct {
	Topo   *topology.Topology
	Engine *propagate.Engine
	RSRIBs map[string]*propagate.RSRIB

	IRR *irr.Registry
	Geo *geo.Database
	PDB *peeringdb.Registry

	// Dumps and Updates are the collector archives, parsed back from
	// MRT bytes so the full codec path is exercised.
	Dumps   []*mrt.Dump
	Updates []*mrt.BGP4MPMessage

	lgServer *lg.Server
	lgHTTP   *http.Client // every LG client's: lgServer's in-process transport
	httpSrv  *http.Server
	baseURL  string

	// Owners indexes prefix origination ground truth (used by the AS
	// looking glasses, which know their own routing tables).
	Owners map[bgp.Prefix]bgp.ASN

	cfg topology.Config
}

// Timestamp is the nominal collection time: the paper's 1 May 2013.
var Timestamp = time.Date(2013, 5, 1, 0, 0, 0, 0, time.UTC)

// ribPipeChunk is how many archive bytes cross the writer-to-decoder
// pipe per rendezvous. An io.Pipe hands over at most one Read's worth
// at a time: at bufio's 4 KB default the paper world's 21.9 MB archive
// is 5,350 goroutine hand-offs (45-60 ms of a 0.6 s build, measured);
// at 256 KB it is 84 and the cost disappears.
const ribPipeChunk = 256 << 10

// stageGroup runs independent build stages concurrently and keeps the
// first error.
type stageGroup struct {
	wg sync.WaitGroup
	mu sync.Mutex
	//mlplint:guardedby mu
	err error
}

func (g *stageGroup) Go(name string, f func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := f(); err != nil {
			g.mu.Lock()
			if g.err == nil {
				g.err = fmt.Errorf("pipeline: %s stage: %w", name, err)
			}
			g.mu.Unlock()
		}
	}()
}

func (g *stageGroup) Wait() error {
	g.wg.Wait()
	//mlplint:guardedby wg.Wait happens-after every writer's Done, so the read needs no lock
	return g.err
}

// BuildWorld generates and wires a world from the topology config,
// running the scenario cfg.Scenario names (baseline when empty).
//
// Construction is staged: generation and the propagation engine come
// first, then every independent substrate — route-server RIBs and the
// collector RIB archive, the update trace, the IRR, PeeringDB, the
// geolocation database — is built concurrently. A sweep over all
// destination trees is the most expensive step of a build, so there is
// one: the routes stage hands each tree to every per-tree consumer.
func BuildWorld(cfg topology.Config) (*World, error) { return buildWorld(cfg, nil) }

// buildWorld is BuildWorld with a seam for tests: tapRIB, when set,
// wraps the writer the RIB archive bytes go to.
func buildWorld(cfg topology.Config, tapRIB func(io.Writer) io.Writer) (*World, error) {
	if cfg.Scenario == "" {
		cfg.Scenario = "baseline" // normalize once; Scenario() reports it
	}
	topo, err := topology.Generate(cfg)
	if err != nil {
		return nil, err
	}
	w := &World{
		Topo:   topo,
		Engine: propagate.NewEngine(topo, 0),
		cfg:    cfg,
	}

	// The archive goes writer to decoder through a pipe, so decoding
	// overlaps the sweep and the MRT bytes are never held whole. Either
	// side's failure reaches the other through the pipe: a write error
	// is what the decoder reads, a decode error is what the next write
	// returns, and both surface from the rib-archive stage.
	ribR, ribW := io.Pipe()
	var g stageGroup
	g.Go("routes", func() error {
		out := bufio.NewWriterSize(ribW, ribPipeChunk)
		var sink io.Writer = out
		if tapRIB != nil {
			sink = tapRIB(sink)
		}
		rsribs := propagate.NewRSRIBBuilder(w.Engine)
		col := collector.New("rrc-synth", w.Engine, nil, 0)
		rib := col.NewRIBWriter(sink, Timestamp)
		// The RS RIBs read only exporters, which every sweep computes:
		// the feeders are all the vantages this sweep needs.
		w.Engine.ForEachTree(col.Vantages(), func(tr *propagate.Tree) {
			rsribs.Add(tr)
			rib.Add(tr)
		})
		w.RSRIBs = rsribs.RIBs()
		err := rib.Close()
		if err == nil {
			err = out.Flush()
		}
		ribW.CloseWithError(err) // nil closes with io.EOF
		return nil
	})
	g.Go("rib-archive", func() error {
		dump, err := mrt.ReadDump(bufio.NewReaderSize(ribR, ribPipeChunk))
		ribR.CloseWithError(err) // unblocks the writer if decoding stopped early
		if err != nil {
			return err
		}
		w.Dumps = []*mrt.Dump{dump}
		return nil
	})
	g.Go("update-trace", func() error {
		col := collector.New("rrc-synth", w.Engine, nil, 0)
		updOpts := collector.UpdateOptions{
			Churn:          200,
			TransientPaths: 12,
			PoisonedPaths:  8,
			BogonPaths:     6,
			Seed:           cfg.Seed + 2,
		}
		var updBuf bytes.Buffer
		if err := col.WriteUpdates(&updBuf, Timestamp.Add(time.Hour), updOpts); err != nil {
			return err
		}
		var err error
		w.Updates, err = mrt.ReadUpdates(&updBuf)
		return err
	})
	g.Go("irr", func() error {
		w.IRR = buildIRR(topo, cfg.Seed+1)
		return nil
	})
	g.Go("registries", func() error {
		w.Geo = geo.New(topo.PrefixRegions)
		w.Owners = topo.PrefixOwners()
		w.PDB = buildPDB(topo)
		return nil
	})
	if err := g.Wait(); err != nil {
		return nil, err
	}

	w.buildLGServer()
	return w, nil
}

// Scenario returns the name of the scenario this world was built from.
func (w *World) Scenario() string { return w.cfg.Scenario }

func buildPDB(topo *topology.Topology) *peeringdb.Registry {
	reg := peeringdb.NewRegistry()
	ixpsOf := make(map[bgp.ASN][]string)
	for _, info := range topo.IXPs {
		for _, m := range info.Members {
			ixpsOf[m] = append(ixpsOf[m], info.Name)
		}
	}
	lgHosts := make(map[bgp.ASN]bool)
	for _, l := range topo.ValidationLGs {
		lgHosts[l.ASN] = true
	}
	for _, asn := range topo.Order {
		as := topo.ASes[asn]
		if !as.Registered {
			continue
		}
		rec := &peeringdb.Record{
			ASN:    asn,
			Name:   as.Name,
			Policy: as.Policy,
			Scope:  as.Scope,
			IXPs:   ixpsOf[asn],
		}
		if lgHosts[asn] {
			rec.LGURLs = []string{"/as/" + asn.String()}
		}
		reg.Put(rec)
	}
	return reg
}

// registrationFrac is the probability an AS registers an accurate
// aut-num/as-set in the IRR (drives LINX-style discovery and §4.4
// reciprocity validation).
const registrationFrac = 0.77

// buildIRR generates IRR contents from the topology's ground truth:
//
//   - an as-set per IXP that publishes its RS member list,
//   - an aut-num per registered member carrying import/export policy
//     lines toward each route server it is connected to (the §4.4 data),
//   - registration is probabilistic (registrationFrac), except that
//     members of list-publishing IXPs always appear in the as-set (the
//     set is maintained by the IXP, not the member).
//
// IRR contents mirror reality: accurate where generated, but silent for
// unregistered networks.
func buildIRR(topo *topology.Topology, seed int64) *irr.Registry {
	rng := rand.New(rand.NewSource(seed))
	reg := irr.NewRegistry()

	registered := make(map[bgp.ASN]bool)
	for _, asn := range topo.Order {
		if rng.Float64() < registrationFrac {
			registered[asn] = true
		}
	}

	// Per-member policy lines toward each of their route servers.
	type policyLines struct {
		imports, exports []string
	}
	perMember := make(map[bgp.ASN]*policyLines)
	for _, info := range topo.IXPs {
		for _, m := range info.SortedRSMembers() {
			if !registered[m] {
				continue
			}
			pol, ok := topo.Policy(info.Name, m)
			if !ok {
				continue
			}
			pl := perMember[m]
			if pl == nil {
				pl = &policyLines{}
				perMember[m] = pl
			}
			pl.imports = append(pl.imports, irr.FormatImportLine(info.Scheme.RSASN, pol.Import))
			pl.exports = append(pl.exports, irr.FormatExportLine(info.Scheme.RSASN, pol.Export))
		}
	}
	for _, asn := range topo.Order {
		pl, ok := perMember[asn]
		if !ok {
			continue
		}
		o := &irr.Object{}
		o.Attrs = append(o.Attrs,
			irr.Attr{Name: "aut-num", Value: "AS" + asn.String()},
			irr.Attr{Name: "as-name", Value: topo.ASes[asn].Name},
		)
		for _, l := range pl.imports {
			o.Attrs = append(o.Attrs, irr.Attr{Name: "import", Value: l})
		}
		for _, l := range pl.exports {
			o.Attrs = append(o.Attrs, irr.Attr{Name: "export", Value: l})
		}
		o.Attrs = append(o.Attrs, irr.Attr{Name: "source", Value: "SYNTH"})
		reg.Add(o)
	}

	// IXP-maintained as-sets.
	for _, info := range topo.IXPs {
		if !info.PublishesMemberList {
			continue
		}
		o := &irr.Object{}
		o.Attrs = append(o.Attrs, irr.Attr{Name: "as-set", Value: irr.ASSetName(info.Name)})
		var sb strings.Builder
		for i, m := range info.SortedRSMembers() {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString("AS" + m.String())
		}
		o.Attrs = append(o.Attrs,
			irr.Attr{Name: "members", Value: sb.String()},
			irr.Attr{Name: "descr", Value: info.Name + " route server members"},
			irr.Attr{Name: "source", Value: "SYNTH"},
		)
		reg.Add(o)
	}
	return reg
}

// buildLGServer mounts every looking glass:
//
//	/rs/<ixp-name>   IXP route server LGs (HasLG IXPs)
//	/as/<asn>        member and validation LGs
func (w *World) buildLGServer() {
	srv := lg.NewServer()
	mountedAS := make(map[bgp.ASN]bool)
	mountAS := func(host topology.LGHost) {
		if mountedAS[host.ASN] {
			return
		}
		mountedAS[host.ASN] = true
		srv.Mount("as/"+host.ASN.String(), newASBackend(w.Engine, host.ASN, w.Owners, host.AllPaths))
	}
	for _, info := range w.Topo.IXPs {
		if info.HasLG {
			var hidden []bgp.ASN
			if info.Name == "DTEL-IX" {
				// The paper's footnote 3: DTEL-IX's LG refuses queries
				// for 5 members (of 71) who do not disclose
				// connectivity; scale the count with the member list.
				members := info.SortedRSMembers()
				n := len(members) / 14
				if n > 5 {
					n = 5
				}
				hidden = members[:n]
			}
			srv.Mount("rs/"+info.Name, newRSBackend(w.RSRIBs[info.Name], hidden))
		}
		for _, h := range w.Topo.MemberLGs[info.Name] {
			mountAS(h)
		}
	}
	for _, h := range w.Topo.ValidationLGs {
		mountAS(h)
	}
	w.lgServer = srv
	w.lgHTTP = &http.Client{Transport: srv.Transport()}
}

// rsBackend exposes an IXP route server's RIB: the view behind DE-CIX-
// style IXP looking glasses.
type rsBackend struct {
	rib       *propagate.RSRIB
	perMember map[bgp.ASN][]bgp.Prefix
	members   []lg.PeerSummary
	// Hidden members do not appear in summary output (DTEL-IX restricts
	// queries for members who do not wish to disclose connectivity).
	hidden map[bgp.ASN]bool
}

// newRSBackend builds a backend over a route server RIB. hidden lists
// members excluded from the summary output.
func newRSBackend(rib *propagate.RSRIB, hidden []bgp.ASN) *rsBackend {
	b := &rsBackend{
		rib:       rib,
		perMember: make(map[bgp.ASN][]bgp.Prefix),
		hidden:    make(map[bgp.ASN]bool, len(hidden)),
	}
	for _, h := range hidden {
		b.hidden[h] = true
	}
	for p, es := range rib.Entries {
		for _, e := range es {
			b.perMember[e.Member] = append(b.perMember[e.Member], p)
		}
	}
	for _, ps := range b.perMember {
		slices.SortFunc(ps, bgp.ComparePrefixes)
	}
	for _, m := range rib.Members() {
		if b.hidden[m] {
			continue
		}
		addr, ok := rib.IXP.MemberAddr(m)
		if !ok {
			continue
		}
		b.members = append(b.members, lg.PeerSummary{Addr: addr, ASN: m, PfxCount: len(b.perMember[m])})
	}
	return b
}

// RouterID implements lg.Backend.
func (b *rsBackend) RouterID() netip.Addr { return b.rib.IXP.RSAddr }

// LocalASN implements lg.Backend.
func (b *rsBackend) LocalASN() bgp.ASN { return b.rib.IXP.Scheme.RSASN }

// Summary implements lg.Backend.
func (b *rsBackend) Summary() []lg.PeerSummary { return b.members }

// NeighborRoutes implements lg.Backend.
func (b *rsBackend) NeighborRoutes(addr netip.Addr) ([]bgp.Prefix, error) {
	m, ok := b.rib.IXP.MemberByAddr(addr)
	if !ok {
		return nil, fmt.Errorf("lg: %% No such neighbor %s", addr)
	}
	if b.hidden[m] {
		return nil, fmt.Errorf("lg: %% Queries for this neighbor are disabled")
	}
	return b.perMember[m], nil
}

// Lookup implements lg.Backend.
func (b *rsBackend) Lookup(prefix bgp.Prefix) ([]lg.PathInfo, error) {
	es, ok := b.rib.Entries[prefix]
	if !ok {
		return nil, nil
	}
	out := make([]lg.PathInfo, 0, len(es))
	for i, e := range es {
		nh, _ := b.rib.IXP.MemberAddr(e.Member)
		out = append(out, lg.PathInfo{
			Path:        e.Path,
			NextHop:     nh,
			Communities: e.Communities,
			Best:        i == 0,
		})
	}
	return out, nil
}

// asBackend exposes one AS's BGP view: the third-party and validation
// looking glasses of §4.1 and §5.1.
//
// Route reconstruction is slab-allocated from a per-backend arena, so a
// Lookup result is only valid until the next Lookup on the same
// backend. The LG server renders each response before serving the next
// query, and the survey/validation clients drive every LG sequentially,
// so the contract holds for all in-repo consumers.
type asBackend struct {
	engine   *propagate.Engine
	asn      bgp.ASN
	sweep    *propagate.Vantages // the AS itself: all a Lookup reads
	owners   map[bgp.Prefix]bgp.ASN
	allPaths bool
	routerID netip.Addr

	mu sync.Mutex
	//mlplint:guardedby mu
	arena propagate.RouteArena
	//mlplint:guardedby mu
	routeBuf []*propagate.VantageRoute
}

// newASBackend builds a looking glass for the given AS. allPaths
// selects whether the LG displays every available path or only the
// best one (Fig. 8's circles vs triangles).
func newASBackend(engine *propagate.Engine, asn bgp.ASN, owners map[bgp.Prefix]bgp.ASN, allPaths bool) *asBackend {
	// Router ID derived from the ASN for determinism.
	id := netip.AddrFrom4([4]byte{10, byte(asn >> 16), byte(asn >> 8), byte(asn)})
	return &asBackend{
		engine:   engine,
		asn:      asn,
		sweep:    engine.NewVantages([]bgp.ASN{asn}),
		owners:   owners,
		allPaths: allPaths,
		routerID: id,
	}
}

// RouterID implements lg.Backend.
func (b *asBackend) RouterID() netip.Addr { return b.routerID }

// LocalASN implements lg.Backend.
func (b *asBackend) LocalASN() bgp.ASN { return b.asn }

// Summary implements lg.Backend. An AS LG reports its neighbors; for the
// inference pipeline only the route-server views matter, so the
// member's own summary lists nothing.
func (b *asBackend) Summary() []lg.PeerSummary { return nil }

// NeighborRoutes implements lg.Backend.
func (b *asBackend) NeighborRoutes(addr netip.Addr) ([]bgp.Prefix, error) {
	return nil, fmt.Errorf("lg: %% Command not supported on this looking glass")
}

// Lookup implements lg.Backend. It sweeps the prefix owner's tree over
// the LG's own AS. The returned PathInfos alias the backend's route
// arena and are valid until the next Lookup on this backend.
func (b *asBackend) Lookup(prefix bgp.Prefix) ([]lg.PathInfo, error) {
	owner, ok := b.owners[prefix]
	if !ok {
		return nil, nil
	}
	var out []lg.PathInfo
	b.engine.ForEachTreeOf(b.sweep, []bgp.ASN{owner}, func(tr *propagate.Tree) {
		b.mu.Lock()
		defer b.mu.Unlock()
		out = b.pathsLocked(tr)
	})
	return out, nil
}

// pathsLocked renders the LG's routes in tr into the backend's arena.
// Caller holds b.mu.
func (b *asBackend) pathsLocked(tr *propagate.Tree) []lg.PathInfo {
	b.arena.Reset()
	topo := b.engine.Topology()
	var routes []*propagate.VantageRoute
	if b.allPaths {
		routes = tr.AvailableRoutesFromArena(b.asn, &b.arena, b.routeBuf)
		b.routeBuf = routes[:0]
	} else if r := tr.RouteFromArena(b.asn, &b.arena); r != nil {
		if cap(b.routeBuf) == 0 {
			b.routeBuf = make([]*propagate.VantageRoute, 0, 1)
		}
		routes = append(b.routeBuf[:0], r)
	}
	out := make([]lg.PathInfo, 0, len(routes))
	for i, r := range routes {
		// Displayed paths exclude the LG's own ASN, like real routers.
		path := r.Path
		if len(path) > 0 && path[0] == b.asn {
			path = path[1:]
		}
		nh := b.routerID
		if r.ViaIXP != "" {
			if info := topo.IXPByName(r.ViaIXP); info != nil {
				if a, ok := info.MemberAddr(r.RSSetter); ok {
					nh = a
				}
			}
		}
		out = append(out, lg.PathInfo{
			Path:        path,
			NextHop:     nh,
			Communities: r.Communities,
			Best:        i == 0,
		})
	}
	return out
}

// StartLGs also serves all looking glasses on a loopback HTTP listener,
// for callers that want a real socket (BaseURL names it). The World's
// own clients never use it: they reach the same server in process.
func (w *World) StartLGs() error {
	if w.httpSrv != nil {
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("pipeline: starting LG server: %w", err)
	}
	w.httpSrv = &http.Server{Handler: w.lgServer.Handler()}
	w.baseURL = "http://" + ln.Addr().String()
	go func() { _ = w.httpSrv.Serve(ln) }()
	return nil
}

// BaseURL returns the LG server's base URL (after StartLGs).
func (w *World) BaseURL() string { return w.baseURL }

// Close shuts down the loopback listener StartLGs started, if any.
func (w *World) Close() error {
	if w.httpSrv == nil {
		return nil
	}
	err := w.httpSrv.Close()
	w.httpSrv = nil
	return err
}

// lgHost is the host part of every World LG client's URL. The
// in-process transport never resolves it (.invalid is reserved to
// resolve nowhere); it only names the server in error messages.
const lgHost = "http://lg.invalid"

// lgClient builds a client of the in-process LG server.
func (w *World) lgClient(path string) *lg.Client {
	return &lg.Client{BaseURL: lgHost + "/" + path, HTTPClient: w.lgHTTP}
}

// LGEndpoints assembles the per-IXP looking-glass clients for the
// active survey. The argument is ignored: it stays only because the
// benchmark passes it.
func (w *World) LGEndpoints(_ time.Duration) map[string]core.IXPLGs {
	out := make(map[string]core.IXPLGs, len(w.Topo.IXPs))
	for _, info := range w.Topo.IXPs {
		var e core.IXPLGs
		if info.HasLG {
			e.RS = w.lgClient("rs/" + info.Name)
		}
		for _, h := range w.Topo.MemberLGs[info.Name] {
			e.Members = append(e.Members, core.MemberLG{
				Client: w.lgClient("as/" + h.ASN.String()),
				Host:   h.ASN,
			})
		}
		out[info.Name] = e
	}
	return out
}

// ValidationLGs assembles the validation clients (§5.1's 70 LGs).
func (w *World) ValidationLGs() []core.ValidationLG {
	var out []core.ValidationLG
	for _, h := range w.Topo.ValidationLGs {
		out = append(out, core.ValidationLG{
			Client:   w.lgClient("as/" + h.ASN.String()),
			Host:     h.ASN,
			AllPaths: h.AllPaths,
		})
	}
	return out
}

// Dictionary builds the inference dictionary from the world's public
// data sources (IXP documentation plus the IRR).
func (w *World) Dictionary() (*core.Dictionary, error) {
	var sites []core.WebsiteData
	for _, info := range w.Topo.IXPs {
		site := core.WebsiteData{
			Name:                info.Name,
			Scheme:              info.Scheme,
			PublishesMemberList: info.PublishesMemberList,
		}
		if info.PublishesMemberList {
			site.PublishedRSMembers = info.SortedRSMembers()
		}
		sites = append(sites, site)
	}
	return core.BuildDictionary(sites, w.IRR)
}

// Run is the complete inference outcome over one world.
type Run struct {
	Dict    *core.Dictionary
	Passive *core.PassiveResult
	Active  *core.ActiveResult
	Merged  *core.Observations
	Result  *core.Result
}

// RunInference executes the full pipeline: passive mining of the MRT
// archives, the active LG survey, merge, and link inference.
func (w *World) RunInference(ctx context.Context, activeCfg core.ActiveConfig) (*Run, error) {
	dict, err := w.Dictionary()
	if err != nil {
		return nil, err
	}
	passive, err := core.RunPassive(w.Dumps, w.Updates, dict)
	if err != nil {
		return nil, err
	}
	active, err := core.RunActive(ctx, dict, w.LGEndpoints(0), passive.Obs, passive.PrefixesByOrigin(), activeCfg)
	if err != nil {
		return nil, err
	}
	merged := core.NewObservations()
	merged.Merge(passive.Obs)
	merged.Merge(active.Obs)
	return &Run{
		Dict:    dict,
		Passive: passive,
		Active:  active,
		Merged:  merged,
		Result:  core.InferLinks(dict, merged),
	}, nil
}

// Validator builds the §5.1 validation engine over this world.
func (w *World) Validator(run *Run) *core.Validator {
	return &core.Validator{
		LGs:              w.ValidationLGs(),
		Geo:              w.Geo,
		PrefixesByOrigin: run.Passive.PrefixesByOrigin(),
		Rels:             run.Passive.Rels,
	}
}
