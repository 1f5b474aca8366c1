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
	"net"
	"net/http"
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
		w.Engine.ForEachTree(col.Vantages(), 0, func(tr *propagate.Tree) {
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
		w.IRR = irr.Build(topo, cfg.Seed+1)
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
		srv.Mount("as/"+host.ASN.String(), lg.NewASBackend(w.Engine, host.ASN, w.Owners, host.AllPaths))
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
			srv.Mount("rs/"+info.Name, lg.NewRSBackend(w.RSRIBs[info.Name], hidden))
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
	hints := make(map[bgp.ASN][]bgp.Prefix)
	for p, origin := range passive.PrefixOrigins {
		hints[origin] = append(hints[origin], p)
	}
	active, err := core.RunActive(ctx, dict, w.LGEndpoints(0), passive.Obs, hints, activeCfg)
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
	prefixes := make(map[bgp.ASN][]bgp.Prefix)
	for p, origin := range run.Passive.PrefixOrigins {
		prefixes[origin] = append(prefixes[origin], p)
	}
	return &core.Validator{
		LGs:              w.ValidationLGs(),
		Geo:              w.Geo,
		PrefixesByOrigin: prefixes,
		Rels:             run.Passive.Rels,
	}
}
