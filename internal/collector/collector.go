// Package collector simulates Route Views / RIPE RIS route collectors:
// it peers with the topology's feeder ASes and archives their views as
// MRT TABLE_DUMP_V2 RIB dumps and BGP4MP update traces — the passive
// data source of the inference pipeline (§4.2).
package collector

import (
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/mrt"
	"mlpeering/internal/par"
	"mlpeering/internal/propagate"
	"mlpeering/internal/topology"
)

// The collector's own BGP identity on its feeder sessions.
var collectorAddr = netip.AddrFrom4([4]byte{198, 51, 100, 1})

const collectorASN bgp.ASN = 64999

// Collector archives the BGP views of a set of feeders.
type Collector struct {
	Name    string
	engine  *propagate.Engine
	feeders []topology.Feeder
	addrs   map[bgp.ASN]netip.Addr
	strips  []bool // per feeder: feeder's own export strips communities
	workers int
	// sweep holds every feeder: the vantages of each sweep whose trees
	// reach a RIBWriter, an UpdateStream or WriteUpdates.
	sweep *propagate.Vantages
}

// attrSlot is a reusable per-feeder attribute buffer for RIB dumps: the
// single-segment AS path points straight at the route's path slice, so
// building one entry allocates nothing.
type attrSlot struct {
	attrs bgp.PathAttrs
	seg   [1]bgp.PathSegment
}

// New builds a collector over the engine's topology. If feeders is nil
// the topology's feeder set is used. workers sizes the tree sweeps the
// collector drives itself (WriteRIB, WriteEpoch, and NewUpdateStream's
// full sweep; SeedUpdateStream reads the dump and sweeps nothing) and
// follows par.Workers: 0 means GOMAXPROCS; the bytes written do not
// depend on it.
func New(name string, engine *propagate.Engine, feeders []topology.Feeder, workers int) *Collector {
	if feeders == nil {
		feeders = engine.Topology().Feeders
	}
	c := &Collector{
		Name:    name,
		engine:  engine,
		feeders: feeders,
		addrs:   make(map[bgp.ASN]netip.Addr, len(feeders)),
		workers: par.Workers(workers),
	}
	c.strips = make([]bool, len(feeders))
	topo := engine.Topology()
	asns := make([]bgp.ASN, len(feeders))
	for i, f := range feeders {
		asns[i] = f.ASN
		// Feeder session addresses live in 192.0.2.0/24-style space,
		// expanded to /16 for large feeder sets.
		c.addrs[f.ASN] = netip.AddrFrom4([4]byte{192, 0, byte(2 + i/250), byte(1 + i%250)})
		if as := topo.ASes[f.ASN]; as != nil {
			c.strips[i] = as.StripsCommunities
		}
	}
	c.sweep = engine.NewVantages(asns)
	return c
}

// Vantages returns the collector's feeders as a sweep vantage set: a
// sweep whose trees reach the collector's RIBWriter must compute at
// least what they can see.
func (c *Collector) Vantages() *propagate.Vantages { return c.sweep }

// Engine returns the propagation engine the collector observes.
func (c *Collector) Engine() *propagate.Engine { return c.engine }

// exports reports whether feeder f exports its route toward a
// destination, per its feed kind: peer-style feeders (two-thirds of
// collector peers, §2.3) export only customer routes.
func exports(f topology.Feeder, class propagate.Class) bool {
	if f.Kind == topology.FeedFull {
		return class != propagate.ClassNone
	}
	return class >= propagate.ClassCustomer
}

// RIBWriter writes a TABLE_DUMP_V2 RIB dump of all feeders' views one
// destination tree at a time: the per-tree consumer of an
// Engine.ForEachTree sweep, which fixes the record order. The sweep's
// vantages must include every feeder (Collector.Vantages): a swept tree
// carries only the routes its vantages can see. The first write error
// sticks: later trees are dropped and Close reports it.
type RIBWriter struct {
	c         *Collector
	mw        *mrt.Writer
	ts        time.Time
	peerIndex map[bgp.ASN]uint16
	seq       uint32
	err       error
	// Entry and attribute buffers are reused across destinations: each
	// record is marshaled before the next tree is consumed.
	entries []mrt.RIBEntry
	slots   []attrSlot
	rec     mrt.RIBRecord
	// Routes are reconstructed into an arena rewound per destination,
	// for the same reason.
	arena propagate.RouteArena
}

// NewRIBWriter starts a RIB dump on w: the peer index table goes out
// now, one record per prefix of every tree handed to Add follows.
func (c *Collector) NewRIBWriter(w io.Writer, ts time.Time) *RIBWriter {
	rw := &RIBWriter{
		c:         c,
		mw:        mrt.NewWriter(w),
		ts:        ts,
		peerIndex: make(map[bgp.ASN]uint16, len(c.feeders)),
		entries:   make([]mrt.RIBEntry, 0, len(c.feeders)),
		slots:     make([]attrSlot, len(c.feeders)),
	}
	idx := &mrt.PeerIndexTable{
		CollectorID: collectorAddr,
		ViewName:    c.Name,
	}
	for i, f := range c.feeders {
		rw.peerIndex[f.ASN] = uint16(i)
		idx.Peers = append(idx.Peers, mrt.Peer{
			BGPID: c.addrs[f.ASN],
			Addr:  c.addrs[f.ASN],
			ASN:   f.ASN,
		})
	}
	rw.err = rw.mw.WritePeerIndexTable(ts, idx)
	return rw
}

// Add writes the feeders' routes toward tr's destination, one record
// per prefix. It keeps nothing of tr.
func (rw *RIBWriter) Add(tr *propagate.Tree) {
	if rw.err != nil {
		return
	}
	c := rw.c
	dest := c.engine.Topology().ASes[tr.Dest()]
	if len(dest.Prefixes) == 0 {
		return
	}
	entries := rw.entries[:0]
	rw.arena.Reset()
	for i, f := range c.feeders {
		route := tr.RouteFromArena(f.ASN, &rw.arena)
		if route == nil || !exports(f, route.Class) {
			continue
		}
		sl := &rw.slots[len(entries)]
		sl.seg[0] = bgp.PathSegment{ASNs: route.Path}
		sl.attrs = bgp.PathAttrs{
			Origin:  bgp.OriginIGP,
			ASPath:  sl.seg[:],
			NextHop: c.addrs[f.ASN],
		}
		// The feeder's own export may strip communities; the route's
		// Communities field already accounts for stripping on
		// interior hops.
		if !c.strips[i] {
			sl.attrs.Communities = route.Communities
		}
		entries = append(entries, mrt.RIBEntry{
			PeerIndex:  rw.peerIndex[f.ASN],
			Originated: rw.ts,
			Attrs:      &sl.attrs,
		})
	}
	if len(entries) == 0 {
		return
	}
	for _, p := range dest.Prefixes {
		rw.rec = mrt.RIBRecord{Sequence: rw.seq, Prefix: p, Entries: entries}
		rw.seq++
		if err := rw.mw.WriteRIB(rw.ts, &rw.rec); err != nil {
			rw.err = err
			return
		}
	}
}

// Close flushes the dump and returns the first error of the whole
// write. It does not close the underlying writer.
func (rw *RIBWriter) Close() error {
	if rw.err != nil {
		return rw.err
	}
	return rw.mw.Flush()
}

// WriteRIB writes a full TABLE_DUMP_V2 RIB dump of all feeders' views:
// a RIBWriter as the only consumer of its own sweep.
func (c *Collector) WriteRIB(w io.Writer, ts time.Time) error {
	rw := c.NewRIBWriter(w, ts)
	c.engine.ForEachTree(c.sweep, c.workers, rw.Add)
	return rw.Close()
}

// routeAttrs converts a vantage route into BGP path attributes as the
// collector would record them.
func (c *Collector) routeAttrs(f topology.Feeder, route *propagate.VantageRoute) *bgp.PathAttrs {
	attrs := &bgp.PathAttrs{
		Origin:  bgp.OriginIGP,
		ASPath:  bgp.NewASPath(route.Path...),
		NextHop: c.addrs[f.ASN],
	}
	// The feeder's own export may strip communities; the route's
	// Communities field already accounts for stripping on interior hops.
	if !c.engine.Topology().ASes[f.ASN].StripsCommunities {
		attrs.Communities = route.Communities.Clone()
	}
	return attrs
}

// UpdateOptions controls synthetic update-trace generation.
type UpdateOptions struct {
	// Churn is the number of ordinary re-announcements to sample.
	Churn int
	// TransientPaths injects short-lived paths with a forged link
	// (mimicking misconfigured community/path handling); the passive
	// pipeline must filter these (§5).
	TransientPaths int
	// PoisonedPaths injects paths with an AS cycle.
	PoisonedPaths int
	// BogonPaths injects paths carrying a reserved ASN.
	BogonPaths int
	// Seed drives sampling.
	Seed int64
}

// WriteUpdates writes a BGP4MP update trace: mostly legitimate route
// churn — paired withdraw / re-announce flaps of existing best routes,
// the message mix real collectors archive — plus the configured
// pollution. Updates are spread over the hour following ts.
func (c *Collector) WriteUpdates(w io.Writer, ts time.Time, opts UpdateOptions) error {
	mw := mrt.NewWriter(w)
	rng := rand.New(rand.NewSource(opts.Seed))
	topo := c.engine.Topology()

	// Candidate destinations: ASes with prefixes.
	var dests []bgp.ASN
	for _, asn := range topo.Order {
		if len(topo.ASes[asn].Prefixes) > 0 {
			dests = append(dests, asn)
		}
	}
	if len(dests) == 0 || len(c.feeders) == 0 {
		return mw.Flush()
	}

	writeUpd := func(f topology.Feeder, upd *bgp.Update, at time.Time) error {
		msg := &mrt.BGP4MPMessage{
			PeerASN:   f.ASN,
			LocalASN:  collectorASN,
			PeerAddr:  c.addrs[f.ASN],
			LocalAddr: collectorAddr,
			Message:   upd,
			AS4:       true,
		}
		return mw.WriteBGP4MP(at, msg)
	}

	// Each sampled route is marshaled before the next draw, so one
	// arena rewound per iteration serves the whole trace. A session
	// flap is a withdrawal followed by a re-announcement of the same
	// route moments later: the withdrawn-only UPDATE carries no path
	// attributes at all, exactly what the passive pipeline must now
	// tolerate (and count) instead of dropping on the floor.
	var arena propagate.RouteArena
	for i := 0; i < opts.Churn; i++ {
		f := c.feeders[rng.Intn(len(c.feeders))]
		d := dests[rng.Intn(len(dests))]
		route := c.routeFrom(f.ASN, d, &arena)
		if route == nil || !exports(f, route.Class) {
			continue
		}
		prefixes := topo.ASes[d].Prefixes
		p := prefixes[rng.Intn(len(prefixes))]
		at := ts.Add(time.Duration(rng.Intn(3590)) * time.Second)
		if err := writeUpd(f, &bgp.Update{Withdrawn: []bgp.Prefix{p}}, at); err != nil {
			return err
		}
		reAt := at.Add(time.Duration(1+rng.Intn(9)) * time.Second)
		if err := writeUpd(f, &bgp.Update{Attrs: c.routeAttrs(f, route), NLRI: []bgp.Prefix{p}}, reAt); err != nil {
			return err
		}
	}

	pollute := func(n int, mangle func(path []bgp.ASN) []bgp.ASN) error {
		for i := 0; i < n; i++ {
			f := c.feeders[rng.Intn(len(c.feeders))]
			d := dests[rng.Intn(len(dests))]
			route := c.routeFrom(f.ASN, d, &arena)
			if route == nil {
				continue
			}
			attrs := c.routeAttrs(f, route)
			attrs.ASPath = bgp.NewASPath(mangle(append([]bgp.ASN(nil), route.Path...))...)
			prefixes := topo.ASes[d].Prefixes
			p := prefixes[rng.Intn(len(prefixes))]
			at := ts.Add(time.Duration(rng.Intn(3600)) * time.Second)
			if err := writeUpd(f, &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{p}}, at); err != nil {
				return err
			}
		}
		return nil
	}

	// Transient forged link: splice a random AS into the middle.
	if err := pollute(opts.TransientPaths, func(path []bgp.ASN) []bgp.ASN {
		if len(path) < 2 {
			return path
		}
		inject := dests[rng.Intn(len(dests))]
		pos := 1 + rng.Intn(len(path)-1)
		out := append(path[:pos:pos], append([]bgp.ASN{inject}, path[pos:]...)...)
		return out
	}); err != nil {
		return err
	}
	// Poisoned: repeat an earlier AS later in the path (cycle).
	if err := pollute(opts.PoisonedPaths, func(path []bgp.ASN) []bgp.ASN {
		if len(path) < 2 {
			return append(path, path[0], path[len(path)-1])
		}
		return append(path, path[0])
	}); err != nil {
		return err
	}
	// Bogon: reserved ASN in the path.
	if err := pollute(opts.BogonPaths, func(path []bgp.ASN) []bgp.ASN {
		pos := rng.Intn(len(path))
		out := append(path[:pos:pos], append([]bgp.ASN{bgp.ASTrans}, path[pos:]...)...)
		return out
	}); err != nil {
		return err
	}
	return mw.Flush()
}

// routeFrom returns feeder's best route toward dest, or nil, from a
// one-tree sweep over the collector's feeders. The route is
// reconstructed into arena, rewound first, so it outlives the swept
// tree but not the arena's next Reset.
func (c *Collector) routeFrom(feeder, dest bgp.ASN, arena *propagate.RouteArena) *propagate.VantageRoute {
	var route *propagate.VantageRoute
	arena.Reset()
	c.engine.ForEachTreeOf(c.sweep, 1, []bgp.ASN{dest}, func(tr *propagate.Tree) {
		route = tr.RouteFromArena(feeder, arena)
	})
	return route
}

// WriteRIBFile writes the RIB dump to path.
func (c *Collector) WriteRIBFile(path string, ts time.Time) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteRIB(f, ts); err != nil {
		f.Close()
		return fmt.Errorf("collector %s: %w", c.Name, err)
	}
	return f.Close()
}

// WriteUpdatesFile writes the update trace to path.
func (c *Collector) WriteUpdatesFile(path string, ts time.Time, opts UpdateOptions) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteUpdates(f, ts, opts); err != nil {
		f.Close()
		return fmt.Errorf("collector %s: %w", c.Name, err)
	}
	return f.Close()
}
