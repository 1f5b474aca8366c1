package topology

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"sort"
	"sync"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
)

// Builder is the world under construction: a dense AS-index
// representation (ASN → int32 id, one slice-backed record slab) that
// scenario stages transform. Stages mutate the builder; Finalize
// materializes the immutable Topology every downstream layer consumes.
//
// Record pointers returned by AS/At are transient: they are valid until
// the next Add (the slab may move). Stages that add ASes must re-fetch.
type Builder struct {
	Cfg Config

	rng *rand.Rand

	// profiles lists the IXPs to instantiate: the paper's 13, or the
	// scaled world's expansion of them (see expandIXPProfiles).
	profiles []IXPProfile

	recs     []AS              // dense AS records; id = allocation order
	byASN    map[bgp.ASN]int32 // ASN -> dense id
	Order    []bgp.ASN         // every ASN; ascending after the allocation stage
	orderIDs []int32           // dense ids in Order (ascending-ASN) order

	// Tier pools in allocation order, consumed by the attachment and
	// membership stages, with their dense-id mirrors (same order).
	tier1   []bgp.ASN
	tier2   []bgp.ASN
	stubs   []bgp.ASN
	content []bgp.ASN

	tier1IDs   []int32
	tier2IDs   []int32
	stubIDs    []int32
	contentIDs []int32

	// scratchPool hands out per-worker dense working memory to the
	// parallel per-IXP stages (see parallel.go).
	scratchPool sync.Pool

	// World-level state assembled by stages and moved onto the Topology
	// at Finalize. Same semantics as the Topology fields of the same
	// names.
	IXPs          []*ixp.Info
	ExportFilters map[string]map[bgp.ASN]ixp.ExportFilter
	ImportFilters map[string]map[bgp.ASN]ixp.ExportFilter
	BilateralIXP  map[LinkKey][]string
	Feeders       []Feeder
	ValidationLGs []LGHost
	MemberLGs     map[string][]LGHost
	PrefixRegions map[bgp.Prefix]ixp.Region
	MemberComms   map[string]map[bgp.ASN]bgp.Communities
	RemoteMembers map[string][]bgp.ASN

	nextPrefix uint32
}

// NewBuilder returns an empty builder seeded from cfg.
func NewBuilder(cfg Config) *Builder {
	b := &Builder{
		Cfg:           cfg,
		rng:           rand.New(rand.NewSource(cfg.Seed)),
		profiles:      PaperIXPProfiles(),
		byASN:         make(map[bgp.ASN]int32),
		ExportFilters: make(map[string]map[bgp.ASN]ixp.ExportFilter),
		ImportFilters: make(map[string]map[bgp.ASN]ixp.ExportFilter),
		BilateralIXP:  make(map[LinkKey][]string),
		MemberLGs:     make(map[string][]LGHost),
		PrefixRegions: make(map[bgp.Prefix]ixp.Region),
		nextPrefix:    0x14000000, // 20.0.0.0
	}
	b.scratchPool.New = func() any { return &denseScratch{} }
	return b
}

// RNG returns the main generation stream. Baseline stages share it;
// scenario add-on stages must use StageRNG instead so the baseline
// world is reproduced bit-for-bit regardless of which add-ons run.
func (b *Builder) RNG() *rand.Rand { return b.rng }

// StageRNG derives an independent, deterministic random stream for a
// named add-on stage.
func (b *Builder) StageRNG(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(b.Cfg.Seed ^ int64(h.Sum64())))
}

// StageIXPRNG derives the deterministic stream for one IXP's slice of a
// per-IXP stage. Keying by (stage, IXP name) makes every IXP's draws
// independent of stage scheduling, which is what lets the per-IXP
// stages run on a worker pool without changing the world.
func (b *Builder) StageIXPRNG(stage, ixpName string) *rand.Rand {
	return b.StageRNG(stage + "\x00" + ixpName)
}

// Len returns the number of ASes allocated so far.
func (b *Builder) Len() int { return len(b.recs) }

// ID returns the dense id of asn.
func (b *Builder) ID(asn bgp.ASN) (int32, bool) {
	i, ok := b.byASN[asn]
	return i, ok
}

// At returns the record with dense id i. Transient: valid until the
// next Add.
func (b *Builder) At(i int32) *AS { return &b.recs[i] }

// AS returns the record for asn, or nil. Transient: valid until the
// next Add.
func (b *Builder) AS(asn bgp.ASN) *AS {
	i, ok := b.byASN[asn]
	if !ok {
		return nil
	}
	return &b.recs[i]
}

// Add appends a new AS record and returns its dense id.
func (b *Builder) Add(as AS) int32 {
	id := int32(len(b.recs))
	b.recs = append(b.recs, as)
	b.byASN[as.ASN] = id
	b.Order = append(b.Order, as.ASN)
	return id
}

// IXPByName returns the IXP under construction with the given name, or
// nil.
func (b *Builder) IXPByName(name string) *ixp.Info {
	for _, x := range b.IXPs {
		if x.Name == name {
			return x
		}
	}
	return nil
}

// Link records a customer→provider transit edge (both directions).
func (b *Builder) Link(customer, provider bgp.ASN) {
	c, p := b.AS(customer), b.AS(provider)
	c.Providers = insertASN(c.Providers, provider)
	p.Customers = insertASN(p.Customers, customer)
}

// Peer records a bilateral p2p edge (both directions).
func (b *Builder) Peer(x, y bgp.ASN) {
	if x == y {
		return
	}
	a, c := b.AS(x), b.AS(y)
	a.Peers = insertASN(a.Peers, y)
	c.Peers = insertASN(c.Peers, x)
}

// exportFilterOf returns the export filter of member at the named IXP.
func (b *Builder) exportFilterOf(ixpName string, member bgp.ASN) (ixp.ExportFilter, bool) {
	m, ok := b.ExportFilters[ixpName]
	if !ok {
		return ixp.ExportFilter{}, false
	}
	f, ok := m[member]
	return f, ok
}

// usedASNs tracks allocated ASNs including the fixed RS ASNs.
func (b *Builder) usedASNs() map[bgp.ASN]bool {
	used := make(map[bgp.ASN]bool, len(b.recs)+len(b.profiles))
	for i := range b.recs {
		used[b.recs[i].ASN] = true
	}
	for _, p := range b.profiles {
		used[p.RSASN] = true
	}
	return used
}

// allocPrefix hands out the next disjoint prefix block and records its
// serving region.
func (b *Builder) allocPrefix(bits int, region ixp.Region) bgp.Prefix {
	addr := netip.AddrFrom4([4]byte{
		byte(b.nextPrefix >> 24), byte(b.nextPrefix >> 16),
		byte(b.nextPrefix >> 8), byte(b.nextPrefix),
	})
	b.nextPrefix += 1024 // always step a /22 block to keep prefixes disjoint
	p := bgp.PrefixFrom(addr, bits)
	b.PrefixRegions[p] = region
	return p
}

// Finalize materializes the Topology: the record slab is re-packed in
// ascending-ASN order so that dense id == position in Order, the map
// view is built over it, and the world is validated.
func (b *Builder) Finalize() (*Topology, error) {
	order := append([]bgp.ASN(nil), b.Order...)
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	recs := make([]AS, len(order))
	index := make(map[bgp.ASN]int32, len(order))
	for i, asn := range order {
		id, ok := b.byASN[asn]
		if !ok {
			return nil, fmt.Errorf("topology: ASN %s in order but never allocated", asn)
		}
		recs[i] = b.recs[id]
		index[asn] = int32(i)
	}
	t := &Topology{
		Order:         order,
		recs:          recs,
		index:         index,
		ASes:          make(map[bgp.ASN]*AS, len(recs)),
		IXPs:          b.IXPs,
		ExportFilters: b.ExportFilters,
		ImportFilters: b.ImportFilters,
		BilateralIXP:  b.BilateralIXP,
		Feeders:       b.Feeders,
		ValidationLGs: b.ValidationLGs,
		MemberLGs:     b.MemberLGs,
		PrefixRegions: b.PrefixRegions,
		MemberComms:   b.MemberComms,
		RemoteMembers: b.RemoteMembers,
	}
	for i := range recs {
		t.ASes[recs[i].ASN] = &recs[i]
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
