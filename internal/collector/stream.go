package collector

import (
	"fmt"
	"io"
	"slices"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/mrt"
	"mlpeering/internal/propagate"
	"mlpeering/internal/topology"
)

// UpdateStream turns epochal world mutation into a true announce +
// withdraw BGP4MP trace: it holds every feeder's exported route per
// destination as archived in the RIB dump, and after each epoch's
// Engine.Apply diffs the dirty destinations its feeders can see change
// against that baseline, emitting withdrawals for routes and prefixes
// that disappeared and announcements for routes that appeared or
// changed — the message mix real collectors archive, unlike the
// announce-only re-broadcast churn of WriteUpdates.
type UpdateStream struct {
	col *Collector

	// The feeders whose exported route churn can change. A peer-style
	// feeder exports customer routes only, and customer-class hops
	// depend on transit edges alone, which no delta touches: only
	// full-table feeders are vantages.
	vantages *propagate.Vantages
	visible  int // destinations the last WriteEpoch walked

	// Per destination: the prefix list announced at snapshot time and,
	// per feeder, a fingerprint of the route as exported to the
	// collector ("" = feeder had no exportable route). Destinations
	// absent from the maps announced nothing.
	prefixes map[bgp.ASN][]bgp.Prefix
	routes   map[bgp.ASN][]string
}

// newStream returns a stream over col with an empty baseline.
func newStream(col *Collector) *UpdateStream {
	var full []bgp.ASN
	for _, f := range col.feeders {
		if f.Kind == topology.FeedFull {
			full = append(full, f.ASN)
		}
	}
	return &UpdateStream{
		col:      col,
		vantages: col.engine.NewVantages(full),
		prefixes: make(map[bgp.ASN][]bgp.Prefix),
		routes:   make(map[bgp.ASN][]string),
	}
}

// SeedUpdateStream starts a stream whose diff baseline is dump, the RIB
// dump of col's feeders decoded from the engine's current state (the
// world build archives one): per destination, the first record's
// entries are the feeders' exported routes, fingerprinted by peer
// index. It sweeps no tree. A peer table that does not list col's
// feeders in order is an error, and so is a record it cannot map: one
// that belongs to no destination's prefix run, an entry whose peer
// index is out of range or repeated, or a path that is not one
// non-empty AS_SEQUENCE.
func SeedUpdateStream(col *Collector, dump *mrt.Dump) (*UpdateStream, error) {
	if dump.Index == nil || len(dump.Index.Peers) != len(col.feeders) {
		return nil, fmt.Errorf("collector %s: dump peer table does not list the %d feeders", col.Name, len(col.feeders))
	}
	for i, f := range col.feeders {
		if p := dump.Index.Peers[i]; p.ASN != f.ASN || p.Addr != col.addrs[f.ASN] {
			return nil, fmt.Errorf("collector %s: dump peer %d is %s at %s, want feeder %s at %s", col.Name, i, p.ASN, p.Addr, f.ASN, col.addrs[f.ASN])
		}
	}
	s := newStream(col)
	topo := col.engine.Topology()
	recs := dump.RIBs
	var buf []byte
	j := 0
	// The dump holds, in ascending destination order, one record per
	// prefix of every destination some feeder exported a route toward,
	// each with the same entries.
	for _, dest := range topo.Order {
		ps := topo.ASes[dest].Prefixes
		if len(ps) == 0 || j == len(recs) || recs[j].Prefix != ps[0] {
			continue
		}
		for k, p := range ps {
			if j+k == len(recs) || recs[j+k].Prefix != p {
				return nil, fmt.Errorf("collector %s: dump record %d: %s's prefix run breaks at %s", col.Name, j+k, dest, p)
			}
		}
		if len(recs[j].Entries) == 0 {
			return nil, fmt.Errorf("collector %s: dump record %d has no entries", col.Name, j)
		}
		fps := make([]string, len(col.feeders))
		for _, en := range recs[j].Entries {
			i := int(en.PeerIndex)
			if i >= len(fps) || fps[i] != "" {
				return nil, fmt.Errorf("collector %s: dump record %d: peer index %d out of range or repeated", col.Name, j, i)
			}
			a := en.Attrs
			if a == nil || len(a.ASPath) != 1 || a.ASPath[0].Set || len(a.ASPath[0].ASNs) == 0 {
				return nil, fmt.Errorf("collector %s: dump record %d, peer %d: AS path is not one non-empty AS_SEQUENCE", col.Name, j, i)
			}
			comms := a.Communities
			if col.strips[i] {
				comms = nil
			}
			buf = appendFingerprint(buf[:0], a.ASPath[0].ASNs, comms)
			fps[i] = string(buf)
		}
		s.prefixes[dest] = append([]bgp.Prefix(nil), ps...)
		s.routes[dest] = fps
		j += len(ps)
	}
	if j < len(recs) {
		return nil, fmt.Errorf("collector %s: dump record %d (%s) maps to no destination", col.Name, j, recs[j].Prefix)
	}
	return s, nil
}

// NewUpdateStream is SeedUpdateStream with the baseline swept from the
// engine's current state instead: every destination tree, all feeders.
// It is the oracle the seed is tested against, and the benchmark
// harness's decomposed trace build still times it (ROADMAP item 1).
func NewUpdateStream(col *Collector) *UpdateStream {
	s := newStream(col)
	topo := col.engine.Topology()
	var arena propagate.RouteArena
	col.engine.ForEachTree(col.sweep, col.workers, func(tr *propagate.Tree) {
		dest := tr.Dest()
		if len(topo.ASes[dest].Prefixes) == 0 {
			return
		}
		arena.Reset()
		s.capture(tr, &arena)
	})
	return s
}

// capture records dest's per-feeder route fingerprints and prefix list.
func (s *UpdateStream) capture(tr *propagate.Tree, arena *propagate.RouteArena) {
	topo := s.col.engine.Topology()
	dest := tr.Dest()
	ps := topo.ASes[dest].Prefixes
	if len(ps) == 0 {
		delete(s.prefixes, dest)
		delete(s.routes, dest)
		return
	}
	fps := make([]string, len(s.col.feeders))
	any := false
	for i, f := range s.col.feeders {
		route := tr.RouteFromArena(f.ASN, arena)
		if route == nil || !exports(f, route.Class) {
			continue
		}
		fps[i] = routeFingerprint(route, s.col.strips[i])
		any = true
	}
	if !any {
		delete(s.prefixes, dest)
		delete(s.routes, dest)
		return
	}
	s.prefixes[dest] = append([]bgp.Prefix(nil), ps...)
	s.routes[dest] = fps
}

// routeFingerprint canonically encodes the announced path and (unless
// the feeder strips) communities: equal fingerprints ⇔ equal UPDATE
// content for the destination's prefixes.
func routeFingerprint(r *propagate.VantageRoute, feederStrips bool) string {
	comms := r.Communities
	if feederStrips {
		comms = nil
	}
	return string(appendFingerprint(nil, r.Path, comms))
}

// appendFingerprint appends the one fingerprint layout, shared by swept
// and archived routes: the path's ASNs big-endian, 0xFF, then the
// communities as exported.
func appendFingerprint(b []byte, path []bgp.ASN, comms bgp.Communities) []byte {
	b = slices.Grow(b, 4*len(path)+1+4*len(comms))
	for _, a := range path {
		b = append(b, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
	}
	b = append(b, 0xFF)
	for _, c := range comms {
		b = append(b, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
	}
	return b
}

// WriteEpoch diffs the dirty destinations (as returned by the Engine.Apply
// that just ran) against the snapshot and writes the resulting
// withdraw/announce messages, updating the snapshot as it goes. Only the
// destinations that can look different from a feeder are walked
// (propagate.Vantages.Visible); the rest of dirty changed somewhere no
// feeder sees, so their snapshot rows already hold. Messages are
// timestamped monotonically within [ts, ts+window) so an epoch's churn
// lands inside its inference window in file order. It returns the
// number of announced and withdrawn prefixes.
func (s *UpdateStream) WriteEpoch(w io.Writer, ts time.Time, window time.Duration, dirty []bgp.ASN) (announced, withdrawn int, err error) {
	return s.writeEpoch(w, ts, window, s.vantages.Visible(dirty))
}

// Visible returns how many destinations the last WriteEpoch walked: the
// part of its dirty set that a feeder could see change.
func (s *UpdateStream) Visible() int { return s.visible }

// writeEpoch diffs exactly dests against the snapshot.
func (s *UpdateStream) writeEpoch(w io.Writer, ts time.Time, window time.Duration, dests []bgp.ASN) (announced, withdrawn int, err error) {
	s.visible = len(dests)
	mw := mrt.NewWriter(w)
	topo := s.col.engine.Topology()
	maxOff := int(window/time.Second) - 1
	if maxOff < 0 {
		maxOff = 0
	}
	msgs := 0 // per-epoch message counter: offsets restart each window
	stamp := func() time.Time {
		off := msgs
		if off > maxOff {
			off = maxOff
		}
		msgs++
		return ts.Add(time.Duration(off) * time.Second)
	}
	var arena propagate.RouteArena
	s.col.engine.ForEachTreeOf(s.col.sweep, s.col.workers, dests, func(tr *propagate.Tree) {
		if err != nil {
			return
		}
		dest := tr.Dest()
		oldPs := s.prefixes[dest]
		oldFps := s.routes[dest]
		newPs := topo.ASes[dest].Prefixes

		arena.Reset()
		// The diff pass already reconstructs every feeder's new route:
		// collect the fingerprints as it goes and refresh the snapshot
		// from them directly, instead of re-walking the tree a second
		// time through capture.
		var newFps []string
		any := false
		if len(newPs) > 0 {
			newFps = make([]string, len(s.col.feeders))
		}
		for i, f := range s.col.feeders {
			var oldFp string
			if oldFps != nil {
				oldFp = oldFps[i]
			}
			var newFp string
			var route *propagate.VantageRoute
			if newFps != nil {
				route = tr.RouteFromArena(f.ASN, &arena)
				if route != nil && exports(f, route.Class) {
					newFp = routeFingerprint(route, s.col.strips[i])
					newFps[i] = newFp
					any = true
				} else {
					route = nil
				}
			}
			switch {
			case oldFp != "" && newFp == "":
				// Route gone: withdraw everything previously announced.
				if err = s.writeWithdraw(mw, f, oldPs, stamp); err != nil {
					return
				}
				withdrawn += len(oldPs)
			case newFp != "" && (oldFp == "" || oldFp != newFp):
				// New or changed route: re-announce all current
				// prefixes (an UPDATE implicitly replaces the old
				// route), and withdraw prefixes that left the set.
				if gone := prefixesOnlyIn(oldPs, newPs); len(gone) > 0 && oldFp != "" {
					if err = s.writeWithdraw(mw, f, gone, stamp); err != nil {
						return
					}
					withdrawn += len(gone)
				}
				if err = s.writeAnnounce(mw, f, route, newPs, stamp); err != nil {
					return
				}
				announced += len(newPs)
			case newFp != "" && oldFp == newFp:
				// Same route; only the prefix set may have moved.
				if gone := prefixesOnlyIn(oldPs, newPs); len(gone) > 0 {
					if err = s.writeWithdraw(mw, f, gone, stamp); err != nil {
						return
					}
					withdrawn += len(gone)
				}
				if added := prefixesOnlyIn(newPs, oldPs); len(added) > 0 {
					if err = s.writeAnnounce(mw, f, route, added, stamp); err != nil {
						return
					}
					announced += len(added)
				}
			}
		}
		// Refresh the snapshot from the fingerprints just computed.
		if any {
			s.prefixes[dest] = append([]bgp.Prefix(nil), newPs...)
			s.routes[dest] = newFps
		} else {
			delete(s.prefixes, dest)
			delete(s.routes, dest)
		}
	})
	if err != nil {
		return announced, withdrawn, err
	}
	return announced, withdrawn, mw.Flush()
}

// writeWithdraw emits one withdrawn-only UPDATE from feeder f.
func (s *UpdateStream) writeWithdraw(mw *mrt.Writer, f topology.Feeder, ps []bgp.Prefix, stamp func() time.Time) error {
	msg := &mrt.BGP4MPMessage{
		PeerASN:   f.ASN,
		LocalASN:  collectorASN,
		PeerAddr:  s.col.addrs[f.ASN],
		LocalAddr: collectorAddr,
		Message:   &bgp.Update{Withdrawn: ps},
		AS4:       true,
	}
	return mw.WriteBGP4MP(stamp(), msg)
}

// writeAnnounce emits one UPDATE announcing ps with the feeder's
// current route attributes.
func (s *UpdateStream) writeAnnounce(mw *mrt.Writer, f topology.Feeder, route *propagate.VantageRoute, ps []bgp.Prefix, stamp func() time.Time) error {
	msg := &mrt.BGP4MPMessage{
		PeerASN:   f.ASN,
		LocalASN:  collectorASN,
		PeerAddr:  s.col.addrs[f.ASN],
		LocalAddr: collectorAddr,
		Message:   &bgp.Update{Attrs: s.col.routeAttrs(f, route), NLRI: ps},
		AS4:       true,
	}
	return mw.WriteBGP4MP(stamp(), msg)
}

// prefixesOnlyIn returns the prefixes of a that are not in b.
func prefixesOnlyIn(a, b []bgp.Prefix) []bgp.Prefix {
	var out []bgp.Prefix
	for _, p := range a {
		found := false
		for _, q := range b {
			if p == q {
				found = true
				break
			}
		}
		if !found {
			out = append(out, p)
		}
	}
	return out
}
