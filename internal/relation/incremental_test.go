package relation

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/paths"
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
	view := paths.NewView(store, ids)
	batch := Infer(view)

	bc, ic := runPasses(view).clique, inc.clique
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
	got := make(map[bgp.LinkKey]Rel, inc.LinkCount())
	inc.ForEachLink(func(k bgp.LinkKey, r Rel) bool {
		got[k] = r
		return true
	})
	p2p := 0
	batch.ForEachLink(func(k bgp.LinkKey, want Rel) bool {
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
		before := maps.Clone(inc.p2p)
		inc.Commit()
		assertOracleEquivalence(t, step, store, live, inc)
		// P2PFlipped names exactly the pairs whose p2p label moved.
		flips := 0
		union := maps.Clone(before)
		maps.Copy(union, inc.p2p)
		for key := range union {
			if got, want := inc.P2PFlipped(key.B, key.A), before[key] != inc.p2p[key]; got != want {
				t.Fatalf("step %d: P2PFlipped(%v) = %v, want %v", step, key, got, want)
			}
			if before[key] != inc.p2p[key] {
				flips++
			}
		}
		if inc.P2PFlips() != flips {
			t.Fatalf("step %d: P2PFlips %d, want %d", step, inc.P2PFlips(), flips)
		}
	}

	// Drain to empty: the oracle must unwind cleanly.
	for id := range live {
		inc.RemovePath(id)
		delete(live, id)
	}
	inc.Commit()
	assertOracleEquivalence(t, 999, store, live, inc)
	if inc.LinkCount() != 0 || len(inc.votes) != 0 || len(inc.transit) != 0 || len(inc.degree) != 0 {
		t.Fatalf("drained oracle retains state: %d links, %d votes, %d transit, %d degrees",
			inc.LinkCount(), len(inc.votes), len(inc.transit), len(inc.degree))
	}
	if inc.P2PCount() != 0 || len(inc.touched) != 0 {
		t.Fatalf("drained oracle retains p2p state: %d p2p, %d touched",
			inc.P2PCount(), len(inc.touched))
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

	before := make(map[bgp.LinkKey]Rel)
	inc.ForEachLink(func(k bgp.LinkKey, r Rel) bool { before[k] = r; return true })

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

	after := make(map[bgp.LinkKey]Rel)
	inc.ForEachLink(func(k bgp.LinkKey, r Rel) bool { after[k] = r; return true })
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

// TestInferenceIterators pins the allocation-free iterators to the
// inference's own tables: ForEachLink to the label map, and
// ForEachConeMember to a closure over the customer lists.
func TestInferenceIterators(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inf := InferPaths(synthPaths(rng, 80))

	links := inf.rels
	if len(links) != inf.LinkCount() {
		t.Fatalf("LinkCount %d != %d labels", inf.LinkCount(), len(links))
	}
	seen := 0
	inf.ForEachLink(func(k bgp.LinkKey, r Rel) bool {
		if links[k] != r {
			t.Fatalf("ForEachLink %v=%v disagrees with the label %v", k, r, links[k])
		}
		seen++
		return true
	})
	if seen != len(links) {
		t.Fatalf("ForEachLink visited %d of %d links", seen, len(links))
	}
	// Early exit stops the walk.
	n := 0
	inf.ForEachLink(func(bgp.LinkKey, Rel) bool { n++; return false })
	if n > 1 {
		t.Fatalf("ForEachLink ignored early exit (visited %d)", n)
	}

	for _, asn := range []bgp.ASN{10, 100, 1000} {
		cone := map[bgp.ASN]bool{asn: true}
		for grown := true; grown; {
			grown = false
			for a := range cone {
				for _, c := range inf.customers[a] {
					if !cone[c] {
						cone[c], grown = true, true
					}
				}
			}
		}
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
	clique := slices.Clone(inc.clique)
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
	if !slices.Equal(inc.clique, clique) {
		t.Fatalf("clique moved to %v", inc.clique)
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

// indexEqual compares two AS -> path set indexes.
func indexEqual(x, y map[bgp.ASN]map[paths.ID]bool) bool {
	return maps.EqualFunc(x, y, func(m, n map[paths.ID]bool) bool { return maps.Equal(m, n) })
}

// assertSameState compares two oracles' whole committed state: the
// refcounts, degrees and votes by value, both path indexes, the vote
// cache of every live path, the p2p labels and the clique.
func assertSameState(t *testing.T, step int, bulk, twin *Incremental, live map[paths.ID]bool) {
	t.Helper()
	diverges := func(what string) {
		t.Helper()
		t.Fatalf("step %d: %s diverges between the bulk-seeded and the path-by-path oracle", step, what)
	}
	switch {
	case !maps.Equal(bulk.adj, twin.adj):
		diverges("adj")
	case !maps.Equal(bulk.transit, twin.transit):
		diverges("transit")
	case !maps.Equal(bulk.degree, twin.degree):
		diverges("degree")
	case !maps.EqualFunc(bulk.votes, twin.votes, func(a, b *vote) bool { return *a == *b }):
		diverges("votes")
	case !indexEqual(bulk.pathsByAS, twin.pathsByAS):
		diverges("pathsByAS")
	case !indexEqual(bulk.byPeak, twin.byPeak):
		diverges("byPeak")
	case !maps.Equal(bulk.p2p, twin.p2p):
		diverges("p2p")
	case !slices.Equal(bulk.clique, twin.clique) || !maps.Equal(bulk.cliqueSet, twin.cliqueSet):
		diverges("clique")
	}
	for id := range live {
		if bulk.voted[id] != twin.voted[id] {
			t.Fatalf("step %d: path %d's vote cache diverges: bulk %+v, path by path %+v", step, id, bulk.voted[id], twin.voted[id])
		}
	}
}

// twinOracles drives a bulk-seeded oracle and a path-by-path twin over
// one store: while seeding, every transition goes to both, but only the
// twin commits after each; afterwards both get the same queue and
// commit together.
type twinOracles struct {
	t          *testing.T
	store      *paths.Store
	bulk, twin *Incremental
	live       map[paths.ID]bool
}

func newTwinOracles(t *testing.T, store *paths.Store) *twinOracles {
	return &twinOracles{t: t, store: store, bulk: NewIncremental(store), twin: NewIncremental(store), live: make(map[paths.ID]bool)}
}

// toggle adds id when it is not live and removes it when it is, on both
// oracles; the twin commits at once when seeding.
func (o *twinOracles) toggle(id paths.ID, seeding bool) {
	if o.live[id] {
		delete(o.live, id)
		o.bulk.RemovePath(id)
		o.twin.RemovePath(id)
	} else {
		o.live[id] = true
		o.bulk.AddPath(id)
		o.twin.AddPath(id)
	}
	if seeding {
		o.twin.Commit()
	}
}

// drain removes every live path from both queues.
func (o *twinOracles) drain() {
	for id := range o.live {
		o.toggle(id, false)
	}
}

// seeded commits the bulk oracle's queue, which must start from no live
// path, and checks it against the twin and a batch Infer. Every p2p
// label the seed set is a flip from the empty state.
func (o *twinOracles) seeded(step int) {
	o.t.Helper()
	if len(o.bulk.pathsByAS) != 0 {
		o.t.Fatalf("step %d: the bulk oracle holds live paths before its seed", step)
	}
	o.bulk.Commit()
	assertSameState(o.t, step, o.bulk, o.twin, o.live)
	if !maps.Equal(o.bulk.flipped, o.bulk.p2p) {
		o.t.Fatalf("step %d: the seed flipped %d labels, want its %d p2p labels", step, len(o.bulk.flipped), len(o.bulk.p2p))
	}
	assertOracleEquivalence(o.t, step, o.store, o.live, o.bulk)
}

// commit commits both oracles' queues and checks them against each
// other and a batch Infer.
func (o *twinOracles) commit(step int) {
	o.t.Helper()
	if b, w := o.bulk.Commit(), o.twin.Commit(); b != w {
		o.t.Fatalf("step %d: Commit reported changed=%v, its twin %v", step, b, w)
	}
	assertSameState(o.t, step, o.bulk, o.twin, o.live)
	if !maps.Equal(o.bulk.flipped, o.twin.flipped) {
		o.t.Fatalf("step %d: flipped sets diverge: %d vs %d pairs", step, len(o.bulk.flipped), len(o.twin.flipped))
	}
	assertOracleEquivalence(o.t, step, o.store, o.live, o.bulk)
}

// TestBulkSeedMatchesPathByPath seeds one oracle in a single Commit and
// its twin one AddPath and Commit at a time, then applies one random
// add/remove sequence to both for 30 commits: their whole internal
// state must agree after every Commit. The first queue also adds and
// removes one path (netting out) and flaps a seeded one; a drain to
// empty and a second seed follow.
func TestBulkSeedMatchesPathByPath(t *testing.T) {
	rng := rand.New(rand.NewSource(20130502))
	store := paths.NewStore()
	var ids []paths.ID
	for _, p := range synthPaths(rng, 150) {
		ids = append(ids, store.Intern(p))
	}
	o := newTwinOracles(t, store)
	seed := func(step int) {
		for _, i := range rng.Perm(len(ids))[:70] {
			if !o.live[ids[i]] {
				o.toggle(ids[i], true)
			}
		}
		ghost := ids[slices.IndexFunc(ids, func(id paths.ID) bool { return !o.live[id] })]
		o.bulk.AddPath(ghost)
		o.bulk.RemovePath(ghost)
		for id := range o.live {
			o.bulk.RemovePath(id)
			o.bulk.AddPath(id)
			break
		}
		o.seeded(step)
	}
	events := func(from, n int) {
		for step := from; step < from+n; step++ {
			for k := 0; k < 8; k++ {
				o.toggle(ids[rng.Intn(len(ids))], false)
			}
			o.commit(step)
		}
	}

	seed(0)
	events(1, 30)
	o.drain()
	o.commit(31)
	if len(o.bulk.adj) != 0 || len(o.bulk.pathsByAS) != 0 || len(o.bulk.p2p) != 0 {
		t.Fatalf("drained oracle retains state: %d links, %d indexed ASes, %d p2p", len(o.bulk.adj), len(o.bulk.pathsByAS), len(o.bulk.p2p))
	}
	seed(32)
	events(33, 10)
}

// FuzzIncrementalSeed draws a small path pool — synthPaths' hierarchy
// with some short paths over the mid tier mixed in — and a random
// sequence of add/remove transitions, split between one bulk seed and
// the commits after it, draining everything now and then. After every
// Commit the bulk-seeded oracle must equal its path-by-path twin and a
// batch Infer over the live set.
func FuzzIncrementalSeed(f *testing.F) {
	f.Add(int64(20130501), uint8(40), uint8(30), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, size, split, commits uint8) {
		rng := rand.New(rand.NewSource(seed))
		store := paths.NewStore()
		var ids []paths.ID
		for _, p := range synthPaths(rng, 1+int(size)%64) {
			if rng.Intn(5) == 0 {
				// Zero to four distinct mid-tier hops: short paths that
				// cast no votes, and degree ties among the mids.
				p = p[:0]
				for _, x := range rng.Perm(6)[:rng.Intn(5)] {
					p = append(p, bgp.ASN(100+x))
				}
			}
			ids = append(ids, store.Intern(p))
		}
		o := newTwinOracles(t, store)
		for i := int(split) % (2*len(ids) + 1); i > 0; i-- {
			o.toggle(ids[rng.Intn(len(ids))], true)
		}
		o.seeded(0)
		for step := 1; step <= int(commits)%16; step++ {
			if rng.Intn(5) == 0 {
				o.drain()
			} else {
				for k := rng.Intn(8); k >= 0; k-- {
					o.toggle(ids[rng.Intn(len(ids))], false)
				}
			}
			o.commit(step)
		}
	})
}

// TestBuildIndexGroupsEveryByte builds a path index whose ASes differ
// from one another in one byte each, so a radix pass that skipped or
// misread any byte would split or merge their sets.
func TestBuildIndexGroupsEveryByte(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	want := make(map[bgp.ASN]map[paths.ID]bool)
	var entries []asPath
	for _, a := range []bgp.ASN{0, 7, 7 << 8, 7 << 16, 7 << 24, 7<<24 | 7, 1<<32 - 1} {
		want[a] = make(map[paths.ID]bool)
		for k := 0; k < 5; k++ {
			id := paths.ID(rng.Intn(50))
			want[a][id] = true
			entries = append(entries, packASPath(a, id))
		}
	}
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	if got := buildIndex(entries); !indexEqual(got, want) {
		t.Fatalf("buildIndex = %v, want %v", got, want)
	}
	if got := buildIndex(nil); len(got) != 0 {
		t.Fatalf("buildIndex(nil) = %v, want empty", got)
	}
}
