package propagate

import (
	"sort"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
)

// RSEntry is one member's advertisement of a prefix to a route server.
type RSEntry struct {
	Member      bgp.ASN
	Path        []bgp.ASN // member first, origin last
	Communities bgp.Communities
}

// RSRIB is the routing table of one IXP's route server: everything its
// members currently advertise to it. This is the state an IXP looking
// glass exposes and the object the active inference algorithm queries.
type RSRIB struct {
	IXP     *ixp.Info
	Entries map[bgp.Prefix][]RSEntry
}

// Prefixes returns all prefixes in deterministic order.
func (r *RSRIB) Prefixes() []bgp.Prefix {
	out := make([]bgp.Prefix, 0, len(r.Entries))
	for p := range r.Entries {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return bgp.ComparePrefixes(out[i], out[j]) < 0 })
	return out
}

// PrefixesFrom returns the prefixes advertised by one member, in
// deterministic order: the "show ip bgp neighbor <addr> routes" data.
func (r *RSRIB) PrefixesFrom(member bgp.ASN) []bgp.Prefix {
	var out []bgp.Prefix
	for p, es := range r.Entries {
		for _, e := range es {
			if e.Member == member {
				out = append(out, p)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return bgp.ComparePrefixes(out[i], out[j]) < 0 })
	return out
}

// Members returns the connected members observed in the RIB (ascending).
func (r *RSRIB) Members() []bgp.ASN {
	seen := make(map[bgp.ASN]bool)
	for _, es := range r.Entries {
		for _, e := range es {
			seen[e.Member] = true
		}
	}
	out := make([]bgp.ASN, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RSRIBBuilder accumulates the route server RIBs of every IXP from
// destination trees: the per-tree consumer of an Engine.ForEachTree
// sweep. Trees must arrive in ascending destination order (the sweep's
// order), which fixes the append order of RSRIB.Entries.
type RSRIBBuilder struct {
	e   *Engine
	out map[string]*RSRIB
	// RSEntry.Path references the reconstructed route's path for the
	// RIBs' whole lifetime, so routes come from a never-reset arena the
	// entries keep alive: slab allocation without a copy.
	arena RouteArena
}

// NewRSRIBBuilder returns a builder holding one empty RIB per IXP.
func NewRSRIBBuilder(e *Engine) *RSRIBBuilder {
	b := &RSRIBBuilder{e: e, out: make(map[string]*RSRIB, len(e.ixps))}
	for _, st := range e.ixps {
		b.out[st.info.Name] = &RSRIB{IXP: st.info, Entries: make(map[bgp.Prefix][]RSEntry)}
	}
	return b
}

// Add records what every route server hears about tr's destination. It
// keeps nothing of tr itself.
func (b *RSRIBBuilder) Add(tr *Tree) {
	e := b.e
	dest := e.topo.ASes[tr.Dest()]
	if len(dest.Prefixes) == 0 {
		return
	}
	for _, st := range e.ixps {
		exps := tr.Exporters(st.info.Name)
		if len(exps) == 0 {
			continue
		}
		rib := b.out[st.info.Name]
		for _, m := range exps {
			mi := e.idx[m]
			var comms bgp.Communities
			if !st.info.StripsCommunities {
				comms = st.comms[st.slotOf[mi]]
			}
			route := tr.RouteFromArena(m, &b.arena)
			if route == nil {
				continue
			}
			for _, p := range dest.Prefixes {
				rib.Entries[p] = append(rib.Entries[p], RSEntry{
					Member:      m,
					Path:        route.Path,
					Communities: comms,
				})
			}
		}
	}
}

// RIBs returns the RIBs built so far, keyed by IXP name.
func (b *RSRIBBuilder) RIBs() map[string]*RSRIB { return b.out }

// BuildRSRIBs computes the route server RIBs of every IXP in one pass
// over all destination trees: an RSRIBBuilder as the only consumer of
// its own sweep. workers follows Engine.ForEachTree.
func BuildRSRIBs(e *Engine, workers int) map[string]*RSRIB {
	b := NewRSRIBBuilder(e)
	e.ForEachTree(workers, b.Add)
	return b.RIBs()
}
