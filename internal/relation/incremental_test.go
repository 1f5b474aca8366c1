package relation

import (
	"math/rand"
	"slices"
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/paths"
	"mlpeering/internal/topology"
)

// synthPaths builds a small hierarchical path population: a clique of
// high-degree cores, mid-tier transits, and stub origins, giving the
// inference real peaks, conflicting votes and degree ties to chew on.
func synthPaths(rng *rand.Rand, n int) [][]bgp.ASN {
	cores := []bgp.ASN{10, 11, 12, 13}
	mids := []bgp.ASN{100, 101, 102, 103, 104, 105, 106, 107}
	stubs := make([]bgp.ASN, 40)
	for i := range stubs {
		stubs[i] = bgp.ASN(1000 + i)
	}
	var out [][]bgp.ASN
	for i := 0; i < n; i++ {
		collectorSide := mids[rng.Intn(len(mids))]
		core1 := cores[rng.Intn(len(cores))]
		mid := mids[rng.Intn(len(mids))]
		origin := stubs[rng.Intn(len(stubs))]
		switch rng.Intn(4) {
		case 0: // mid - core - mid - stub
			core2 := cores[rng.Intn(len(cores))]
			out = append(out, []bgp.ASN{collectorSide, core1, core2, mid, origin})
		case 1: // mid - core - mid - stub (single core)
			out = append(out, []bgp.ASN{collectorSide, core1, mid, origin})
		case 2: // mid - mid - stub (no clique crossing)
			out = append(out, []bgp.ASN{collectorSide, mid, origin})
		default: // direct stub
			out = append(out, []bgp.ASN{collectorSide, origin})
		}
	}
	return out
}

// assertOracleEquivalence compares the incremental oracle against a
// fresh batch Infer over the same live path set: clique, link count,
// every link label from ForEachLink, and Relationship in both
// orientations.
func assertOracleEquivalence(t *testing.T, step int, store *paths.Store, live map[paths.ID]bool, inc *Incremental) {
	t.Helper()
	var ids []paths.ID
	for id := range live {
		ids = append(ids, id)
	}
	batch := Infer(paths.NewView(store, ids))

	bc, ic := batch.Clique(), inc.Clique()
	if len(bc) != len(ic) {
		t.Fatalf("step %d: clique sizes diverge: batch %v vs incremental %v", step, bc, ic)
	}
	for i := range bc {
		if bc[i] != ic[i] {
			t.Fatalf("step %d: cliques diverge: batch %v vs incremental %v", step, bc, ic)
		}
	}

	if batch.LinkCount() != inc.LinkCount() {
		t.Fatalf("step %d: link counts diverge: batch %d vs incremental %d", step, batch.LinkCount(), inc.LinkCount())
	}
	got := make(map[topology.LinkKey]Rel, inc.LinkCount())
	inc.ForEachLink(func(k topology.LinkKey, r Rel) bool {
		got[k] = r
		return true
	})
	p2p := 0
	batch.ForEachLink(func(k topology.LinkKey, want Rel) bool {
		if want == RelP2P {
			p2p++
		}
		if got[k] != want {
			t.Fatalf("step %d: link %v: batch %v vs incremental %v", step, k, want, got[k])
		}
		// Both orientations of the pairwise query must agree too.
		if batch.Relationship(k.A, k.B) != inc.Relationship(k.A, k.B) ||
			batch.Relationship(k.B, k.A) != inc.Relationship(k.B, k.A) {
			t.Fatalf("step %d: Relationship(%v) diverges", step, k)
		}
		return true
	})
	if inc.Relationship(4200000000, 4200000001) != RelUnknown {
		t.Fatalf("step %d: unknown pair not RelUnknown", step)
	}
	// The delta-maintained p2p counter must match a full batch tally.
	if inc.P2PCount() != p2p {
		t.Fatalf("step %d: P2PCount %d, batch counts %d p2p links", step, inc.P2PCount(), p2p)
	}
}

// TestIncrementalMatchesBatch churns paths in and out of the live set
// and pins the incremental oracle to a fresh batch Infer after every
// Commit.
func TestIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(20130501))
	pool := synthPaths(rng, 120)

	store := paths.NewStore()
	ids := make([]paths.ID, len(pool))
	for i, p := range pool {
		ids[i] = store.Intern(p)
	}

	inc := NewIncremental(store)
	live := make(map[paths.ID]bool)
	for step := 0; step < 30; step++ {
		// Random batch of adds and removes between commits.
		for n := 0; n < 8; n++ {
			id := ids[rng.Intn(len(ids))]
			if live[id] {
				delete(live, id)
				inc.RemovePath(id)
			} else {
				live[id] = true
				inc.AddPath(id)
			}
		}
		inc.Commit()
		assertOracleEquivalence(t, step, store, live, inc)
	}

	// Drain to empty: the oracle must unwind cleanly.
	for id := range live {
		inc.RemovePath(id)
		delete(live, id)
	}
	inc.Commit()
	assertOracleEquivalence(t, 999, store, live, inc)
	if inc.LinkCount() != 0 || inc.voteCount() != 0 || inc.transitCount() != 0 || inc.degreeCount() != 0 {
		t.Fatalf("drained oracle retains state: %d links, %d votes, %d transit, %d degrees",
			inc.LinkCount(), inc.voteCount(), inc.transitCount(), inc.degreeCount())
	}
	if inc.P2PCount() != 0 || inc.touchedCount() != 0 {
		t.Fatalf("drained oracle retains p2p state: %d p2p, %d touched",
			inc.P2PCount(), inc.touchedCount())
	}
}

// TestIncrementalFlapIsIdempotent removes and re-adds the same paths
// between two commits: the maintained counters must return to the
// pre-flap state exactly.
func TestIncrementalFlapIsIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := synthPaths(rng, 60)
	store := paths.NewStore()

	inc := NewIncremental(store)
	live := make(map[paths.ID]bool)
	for _, p := range pool {
		id := store.Intern(p)
		if !live[id] {
			live[id] = true
			inc.AddPath(id)
		}
	}
	inc.Commit()

	before := make(map[topology.LinkKey]Rel)
	inc.ForEachLink(func(k topology.LinkKey, r Rel) bool { before[k] = r; return true })

	// Flap half the live set inside one commit cycle.
	i := 0
	for id := range live {
		if i++; i%2 == 0 {
			continue
		}
		inc.RemovePath(id)
		inc.AddPath(id)
	}
	inc.Commit()

	after := make(map[topology.LinkKey]Rel)
	inc.ForEachLink(func(k topology.LinkKey, r Rel) bool { after[k] = r; return true })
	if len(before) != len(after) {
		t.Fatalf("flap changed link count: %d vs %d", len(before), len(after))
	}
	for k, r := range before {
		if after[k] != r {
			t.Fatalf("flap changed link %v: %v vs %v", k, r, after[k])
		}
	}
	assertOracleEquivalence(t, 0, store, live, inc)
}

// TestInferenceIterators pins the allocation-free iterator variants to
// the map-allocating originals.
func TestInferenceIterators(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inf := InferPaths(synthPaths(rng, 80))

	links := inf.Links()
	if len(links) != inf.LinkCount() {
		t.Fatalf("LinkCount %d != len(Links) %d", inf.LinkCount(), len(links))
	}
	seen := 0
	inf.ForEachLink(func(k topology.LinkKey, r Rel) bool {
		if links[k] != r {
			t.Fatalf("ForEachLink %v=%v disagrees with Links()=%v", k, r, links[k])
		}
		seen++
		return true
	})
	if seen != len(links) {
		t.Fatalf("ForEachLink visited %d of %d links", seen, len(links))
	}
	// Early exit stops the walk.
	n := 0
	inf.ForEachLink(func(topology.LinkKey, Rel) bool { n++; return false })
	if n > 1 {
		t.Fatalf("ForEachLink ignored early exit (visited %d)", n)
	}

	for _, asn := range []bgp.ASN{10, 100, 1000} {
		cone := inf.CustomerCone(asn)
		got := make(map[bgp.ASN]bool)
		inf.ForEachConeMember(asn, func(a bgp.ASN) bool { got[a] = true; return true })
		if len(got) != len(cone) {
			t.Fatalf("cone of %v: iterator %d members, map %d", asn, len(got), len(cone))
		}
		for a := range cone {
			if !got[a] {
				t.Fatalf("cone of %v: iterator missed %v", asn, a)
			}
		}
	}
}

// TestCommitRevotesOnlyMovedPeaks pins the filtered re-vote on a
// directed trace. A large non-clique AS (50) sits under a clique member
// on a dozen live paths; growing its transit degree makes every one of
// them a candidate, yet none moves its peak, so no live path is
// re-voted. Growing 60's degree from 10 to 12 crosses resolveRel's
// degree-10 refinement bound: the 50-60 link flips c2p -> p2p although
// not one of its votes moved — the relabel comes from the explicit
// incident-link pass, not from a re-vote. A last step does move a peak,
// showing the counter counts. Every step equals a batch Infer.
func TestCommitRevotesOnlyMovedPeaks(t *testing.T) {
	store := paths.NewStore()
	inc := NewIncremental(store)
	live := make(map[paths.ID]bool)
	step := 0
	commit := func(pp ...[]bgp.ASN) {
		t.Helper()
		for _, p := range pp {
			id := store.Intern(p)
			live[id] = true
			inc.AddPath(id)
		}
		if !inc.Commit() {
			t.Fatalf("step %d: Commit reported the oracle unchanged after adding paths", step)
		}
		assertOracleEquivalence(t, step, store, live, inc)
		step++
	}

	var base [][]bgp.ASN
	for i := bgp.ASN(0); i < 12; i++ {
		base = append(base, []bgp.ASN{2000 + i, 10, 50, 5000 + i})
	}
	for i := bgp.ASN(0); i < 9; i++ {
		base = append(base, []bgp.ASN{2050 + i, 10, 50, 60, 8000 + i})
	}
	for i := bgp.ASN(0); i < 14; i++ {
		base = append(base, []bgp.ASN{2100 + i, 11, 6000 + i}, []bgp.ASN{2200 + i, 12, 7000 + i})
	}
	base = append(base, []bgp.ASN{2300, 10, 11, 7100}, []bgp.ASN{2301, 11, 12, 7101}, []bgp.ASN{2302, 10, 12, 7102})
	commit(base...)
	clique := inc.Clique()
	if len(clique) != 3 {
		t.Fatalf("clique %v, want the three cores", clique)
	}
	if d := inc.degreeOf(60); d != 10 {
		t.Fatalf("AS 60 starts at transit degree %d, want 10 (the refinement bound)", d)
	}
	if r := inc.Relationship(60, 50); r != RelC2P {
		t.Fatalf("60 -> 50 starts as %v, want c2p", r)
	}

	// 50's degree moves; 21 live paths cross it, all peaking at core 10.
	before := inc.degreeOf(50)
	commit([]bgp.ASN{2400, 50, 5100})
	if inc.degreeOf(50) != before+2 {
		t.Fatalf("AS 50's degree went %d -> %d, want +2", before, inc.degreeOf(50))
	}
	if inc.revoted != 0 {
		t.Fatalf("a degree move under a clique peak re-voted %d live paths, want 0", inc.revoted)
	}

	// 60's degree crosses the bound: the label flips, no vote moves.
	p2p := inc.P2PCount()
	commit([]bgp.ASN{2500, 60, 8100})
	if inc.revoted != 0 {
		t.Fatalf("crossing the refinement bound re-voted %d live paths, want 0", inc.revoted)
	}
	if r := inc.Relationship(60, 50); r != RelP2P {
		t.Fatalf("60 -> 50 is %v after 60's degree rose to %d, want p2p by refinement", r, inc.degreeOf(60))
	}
	if inc.P2PCount() != p2p+1 {
		t.Fatalf("P2PCount went %d -> %d, want exactly the refined link", p2p, inc.P2PCount())
	}
	if !slices.Equal(inc.Clique(), clique) {
		t.Fatalf("clique moved to %v", inc.Clique())
	}

	// A clique-free path peaks at 50 until 60 outgrows it.
	commit([]bgp.ASN{2600, 50, 60, 8200})
	if inc.revoted != 0 {
		t.Fatalf("adding a path re-voted %d live paths", inc.revoted)
	}
	commit([]bgp.ASN{2700, 60, 8300}, []bgp.ASN{2701, 60, 8301}, []bgp.ASN{2702, 60, 8302})
	if inc.degreeOf(60) <= inc.degreeOf(50) {
		t.Fatalf("AS 60 (degree %d) did not outgrow AS 50 (%d)", inc.degreeOf(60), inc.degreeOf(50))
	}
	if inc.revoted != 1 {
		t.Fatalf("moving one path's peak re-voted %d live paths, want 1", inc.revoted)
	}

	// Nothing queued, and a flap that nets out: the oracle did not move.
	if inc.Commit() {
		t.Fatal("an empty Commit reported a change")
	}
	id := store.Intern([]bgp.ASN{2400, 50, 5100})
	inc.RemovePath(id)
	inc.AddPath(id)
	if inc.Commit() {
		t.Fatal("a flap that netted out reported a change")
	}
	assertOracleEquivalence(t, step, store, live, inc)
}
