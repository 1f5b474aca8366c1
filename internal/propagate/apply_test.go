package propagate

import (
	"bytes"
	"math/rand"
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
	"mlpeering/internal/topology"
)

// randomDelta samples one epoch of churn directly from the topology:
// a bilateral flap, an RS leave, an RS join of a non-RS member, a
// filter edit, and a prefix move. It mirrors internal/churn without
// importing it (churn depends on this package).
func randomDelta(t *testing.T, topo *topology.Topology, rng *rand.Rand, epoch int) *Delta {
	t.Helper()
	d := &Delta{Epoch: epoch}

	// Peer flap: tear down one bilateral link, light one new session.
	links := topo.BilateralLinks()
	if len(links) > 0 {
		l := links[rng.Intn(len(links))]
		d.Peers = append(d.Peers, PeerOp{A: l.A, B: l.B, Add: false})
	}
	info := topo.IXPs[rng.Intn(len(topo.IXPs))]
	members := info.SortedMembers()
	for tries := 0; tries < 16; tries++ {
		a := members[rng.Intn(len(members))]
		b := members[rng.Intn(len(members))]
		if a == b {
			continue
		}
		if _, related := topo.RelationshipOf(a, b); related {
			continue
		}
		d.Peers = append(d.Peers, PeerOp{A: a, B: b, Add: true})
		break
	}

	// Membership: leave a random RS member; join a non-RS member openly.
	rs := info.SortedRSMembers()
	if len(rs) > 5 {
		d.Members = append(d.Members, MemberOp{IXP: info.Name, Member: rs[rng.Intn(len(rs))], Join: false})
	}
	for _, m := range members {
		if !info.IsRSMember(m) {
			open := ixp.OpenFilter()
			cs, err := open.Communities(&info.Scheme)
			if err != nil {
				t.Fatal(err)
			}
			d.Members = append(d.Members, MemberOp{
				IXP: info.Name, Member: m, Join: true,
				Policy: topology.RSPolicy{Export: open, Import: ixp.OpenFilter(), Comms: cs},
			})
			break
		}
	}

	// Filter edit: add an exclude to a member not otherwise scheduled.
	x2 := topo.IXPs[(rng.Intn(len(topo.IXPs)))]
	rs2 := x2.SortedRSMembers()
	for tries := 0; tries < 16; tries++ {
		m := rs2[rng.Intn(len(rs2))]
		scheduled := false
		for _, op := range d.Members {
			if op.IXP == x2.Name && op.Member == m {
				scheduled = true
			}
		}
		if scheduled {
			continue
		}
		pol, ok := topo.Policy(x2.Name, m)
		ef := pol.Export
		if !ok || ef.Mode != ixp.ModeAllExcept {
			continue
		}
		victim := rs2[rng.Intn(len(rs2))]
		if victim == m || ef.Peers[victim] {
			continue
		}
		nf := ixp.NewExportFilter(ixp.ModeAllExcept, append(ef.PeerList(), victim)...)
		cs, err := nf.Communities(&x2.Scheme)
		if err != nil {
			continue
		}
		d.Filters = append(d.Filters, FilterOp{IXP: x2.Name, Member: m,
			Policy: topology.RSPolicy{Export: nf, Import: pol.Import, Comms: cs}})
		break
	}

	// Prefix move.
	for tries := 0; tries < 16; tries++ {
		from := topo.Order[rng.Intn(len(topo.Order))]
		if len(topo.ASes[from].Prefixes) == 0 {
			continue
		}
		to := topo.Order[rng.Intn(len(topo.Order))]
		if to == from {
			continue
		}
		p := topo.ASes[from].Prefixes[0]
		d.Prefixes = append(d.Prefixes, PrefixOp{Prefix: p, From: from, To: to})
		break
	}
	return d
}

// TestApplyEquivalence pins the incremental engine to a fresh rebuild:
// after every epoch's Apply, every tree must be byte-identical to one
// from an engine built from scratch on the mutated topology.
func TestApplyEquivalence(t *testing.T) {
	topo, err := topology.Generate(topology.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(topo, 0)

	rng := rand.New(rand.NewSource(42))
	var a, b []byte
	for epoch := 0; epoch < 4; epoch++ {
		delta := randomDelta(t, topo, rng, epoch)
		if delta.Ops() == 0 {
			t.Fatalf("epoch %d: empty delta", epoch)
		}
		dirty, err := eng.Apply(delta)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if len(dirty) == 0 {
			t.Fatalf("epoch %d: no dirty destinations for %d ops", epoch, delta.Ops())
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("epoch %d: mutated world invalid: %v", epoch, err)
		}
		dirtySet := make(map[bgp.ASN]bool, len(dirty))
		for _, dst := range dirty {
			dirtySet[dst] = true
		}

		fresh := NewEngine(topo, 0)
		for _, dst := range topo.Order {
			a = eng.Tree(dst).AppendState(a[:0])
			b = fresh.Tree(dst).AppendState(b[:0])
			if !bytes.Equal(a, b) {
				t.Fatalf("epoch %d: tree for %s diverges from fresh engine (dirty=%v)",
					epoch, dst, dirtySet[dst])
			}
		}
	}
}

// TestApplyDirtyIsConservative checks the other direction of the dirty
// contract: every destination whose tree actually changed is reported
// dirty.
func TestApplyDirtyIsConservative(t *testing.T) {
	topo, err := topology.Generate(topology.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(topo, 0)
	before := make(map[bgp.ASN][]byte)
	for _, dst := range topo.Order {
		before[dst] = eng.Tree(dst).AppendState(nil)
	}

	rng := rand.New(rand.NewSource(7))
	delta := randomDelta(t, topo, rng, 0)
	dirty, err := eng.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	dirtySet := make(map[bgp.ASN]bool, len(dirty))
	for _, dst := range dirty {
		dirtySet[dst] = true
	}
	fresh := NewEngine(topo, 0)
	changed := 0
	for _, dst := range topo.Order {
		after := fresh.Tree(dst).AppendState(nil)
		if !bytes.Equal(before[dst], after) {
			changed++
			if !dirtySet[dst] {
				t.Fatalf("destination %s changed but was not reported dirty", dst)
			}
		}
	}
	if changed == 0 {
		t.Fatal("delta changed no trees; test is vacuous")
	}
}

// TestApplyPartialFailureRepairs pins the error contract: when a delta
// fails mid-application (after earlier ops already mutated the
// topology), the engine rebuilds itself so every subsequent tree still
// matches a freshly built engine on the half-mutated world.
func TestApplyPartialFailureRepairs(t *testing.T) {
	topo, err := topology.Generate(topology.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(topo, 0)

	// First op: a valid peer teardown. Second op: joining an existing
	// RS member, which fails at the topology level only after the first
	// op has landed.
	links := topo.BilateralLinks()
	info := topo.IXPs[0]
	member := info.SortedRSMembers()[0]
	open := topology.RSPolicy{Export: ixp.OpenFilter(), Import: ixp.OpenFilter()}
	delta := &Delta{
		Peers:   []PeerOp{{A: links[0].A, B: links[0].B, Add: false}},
		Members: []MemberOp{{IXP: info.Name, Member: member, Join: true, Policy: open}},
	}
	if _, err := eng.Apply(delta); err == nil {
		t.Fatal("joining an existing RS member must fail")
	}
	if topo.ASes[links[0].A].HasPeer(links[0].B) {
		t.Fatal("first op did not land; test premise broken")
	}

	fresh := NewEngine(topo, 0)
	var a, b []byte
	for _, dst := range topo.Order {
		a = eng.Tree(dst).AppendState(a[:0])
		b = fresh.Tree(dst).AppendState(b[:0])
		if !bytes.Equal(a, b) {
			t.Fatalf("after failed Apply, tree for %s diverges from fresh engine", dst)
		}
	}
}

// downCone walks the engine's dirty-propagation relation (customers
// plus siblings) from asn: the per-seed dirty contribution.
func downCone(topo *topology.Topology, asn bgp.ASN, into map[bgp.ASN]bool) {
	if into[asn] {
		return
	}
	into[asn] = true
	if as := topo.ASes[asn]; as != nil {
		for _, c := range as.Customers {
			downCone(topo, c, into)
		}
		for _, s := range as.Siblings {
			downCone(topo, s, into)
		}
	}
}

// TestApplyTightenedDirtySets pins the bitset tightening for RS
// membership ops: the dirty set must stay inside the old conservative
// rule (the mutated member's cone plus every co-member's cone) and,
// when the departing member's filters are restrictive, exclude the
// cones of exporters that never had an allowed pair with it.
func TestApplyTightenedDirtySets(t *testing.T) {
	topo, err := topology.Generate(topology.TestConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Pick the RS member with the most restrictive import policy
	// (NoneExcept with the fewest includes) at an IXP with enough
	// members for the tightening to matter.
	var pickIXP string
	var pickMember bgp.ASN
	bestIncludes := 1 << 30
	for _, info := range topo.IXPs {
		members := info.SortedRSMembers()
		if len(members) < 8 {
			continue
		}
		for _, m := range members {
			pol, ok := topo.Policy(info.Name, m)
			imp := pol.Import
			if !ok || imp.Mode != ixp.ModeNoneExcept {
				continue
			}
			if n := len(imp.Peers); n < bestIncludes {
				pickIXP, pickMember, bestIncludes = info.Name, m, n
			}
		}
	}
	if pickIXP == "" {
		t.Skip("generated world has no restrictive RS importer")
	}

	// Conservative rule: member cone + every co-member cone.
	conservative := make(map[bgp.ASN]bool)
	info := topo.IXPByName(pickIXP)
	for _, m := range info.SortedRSMembers() {
		downCone(topo, m, conservative)
	}

	eng := NewEngine(topo, 0)
	dirty, err := eng.Apply(&Delta{Members: []MemberOp{{IXP: pickIXP, Member: pickMember, Join: false}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) == 0 {
		t.Fatal("leave produced no dirty destinations")
	}
	for _, d := range dirty {
		if !conservative[d] {
			t.Fatalf("dirty destination %s outside the conservative cone union", d)
		}
	}
	if len(dirty) >= len(conservative) {
		t.Fatalf("tightened dirty set (%d dests) did not shrink the conservative rule (%d dests) for restrictive importer %s@%s",
			len(dirty), len(conservative), pickMember, pickIXP)
	}
	t.Logf("dirty %d of conservative %d dests (importer %s@%s, %d includes)",
		len(dirty), len(conservative), pickMember, pickIXP, bestIncludes)
}

// TestApplyUnknownRefs rejects deltas referencing unknown ASes or IXPs.
func TestApplyUnknownRefs(t *testing.T) {
	topo, err := topology.Generate(topology.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(topo, 0)
	if _, err := eng.Apply(&Delta{Peers: []PeerOp{{A: 4200000001, B: topo.Order[0], Add: true}}}); err == nil {
		t.Fatal("unknown AS accepted")
	}
	if _, err := eng.Apply(&Delta{Members: []MemberOp{{IXP: "NO-SUCH-IXP", Member: topo.Order[0]}}}); err == nil {
		t.Fatal("unknown IXP accepted")
	}
}
