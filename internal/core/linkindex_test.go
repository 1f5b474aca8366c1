package core

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/topology"
)

// testLinkEncoder is a variable-length stand-in for the serving tier's
// JSON link object.
func testLinkEncoder(dst []byte, key topology.LinkKey, ixps []string) []byte {
	return fmt.Appendf(dst, "<%d-%d@%v>", key.A, key.B, ixps)
}

// diffLinkIndex compares two indexes field by field — links, hash, CSR
// rows, encoding and the patch bookkeeping riding along — returning the
// first difference, "" when equal.
func diffLinkIndex(got, want *LinkIndex) string {
	if !slices.EqualFunc(got.Links, want.Links, func(a, b IndexedLink) bool {
		return a.Key == b.Key && slices.Equal(a.IXPs, b.IXPs)
	}) {
		return fmt.Sprintf("Links differ: %v, want %v", got.Links, want.Links)
	}
	if got.Fingerprint != want.Fingerprint || !slices.Equal(got.fnv, want.fnv) {
		return fmt.Sprintf("fingerprint %x (checkpoints %x), want %x (%x)", got.Fingerprint, got.fnv, want.Fingerprint, want.fnv)
	}
	if got.MultiIXP != want.MultiIXP {
		return fmt.Sprintf("MultiIXP %d, want %d", got.MultiIXP, want.MultiIXP)
	}
	if !slices.Equal(got.IXPs, want.IXPs) || !slices.Equal(got.asns, want.asns) {
		return fmt.Sprintf("row keys differ: IXPs %v asns %v, want %v / %v", got.IXPs, got.asns, want.IXPs, want.asns)
	}
	for _, asn := range want.asns {
		if !slices.Equal(got.ASLinks(asn), want.ASLinks(asn)) {
			return fmt.Sprintf("AS %d row %v, want %v", asn, got.ASLinks(asn), want.ASLinks(asn))
		}
	}
	for _, name := range want.IXPs {
		g, _ := got.IXPLinks(name)
		w, _ := want.IXPLinks(name)
		if !slices.Equal(g, w) {
			return fmt.Sprintf("IXP %s row %v, want %v", name, g, w)
		}
	}
	if !slices.Equal(got.asOff, want.asOff) || !slices.Equal(got.ixpOff, want.ixpOff) {
		return "row offsets differ"
	}
	if !bytes.Equal(got.Encoded, want.Encoded) || !slices.Equal(got.encOff, want.encOff) {
		return fmt.Sprintf("Encoded %q (offsets %v), want %q (%v)", got.Encoded, got.encOff, want.Encoded, want.encOff)
	}
	return ""
}

// TestPatchedIndexEqualsRebuilt drives a MeshState through seeded random
// attribution moves — links appearing, disappearing and moving between
// one, two and three IXPs, including moves that cancel inside one window
// — and checks after every materialized window that the index BuildIndex
// patched out of the previous window's equals newLinkIndex over a fresh
// clone of the same links. Windows nobody materialized and Results
// nobody indexed sit in between, the mesh starts and ends empty, links
// land before the first and after the last position, and every Result is
// checked again three materializations later against a deep copy taken
// when it was built: copy-on-write must really copy.
//
// The mesh closes on one goroutine; the subtest is named for that.
func TestPatchedIndexEqualsRebuilt(t *testing.T) {
	t.Run("workers=1", patchedIndexSweep)
}

func patchedIndexSweep(t *testing.T) {
	d := testDict(t)
	ms := NewMeshState(d)
	rng := rand.New(rand.NewSource(20130501))
	names := []string{"DE-CIX", "ECIX", "MSK-IX"}
	asns := make([]bgp.ASN, 24)
	for i := range asns {
		asns[i] = bgp.ASN(100 + 7*i)
	}

	// toggle flips one (link, IXP) attribution the way Apply does.
	toggle := func(key topology.LinkKey, name string) {
		mi := ms.byName[name]
		mi.stale = true
		if mi.links[key] {
			ms.removeLink(mi, key.A, key.B)
		} else {
			ms.addLink(mi, key.A, key.B)
		}
	}
	randomKey := func() topology.LinkKey {
		a := rng.Intn(len(asns))
		b := (a + 1 + rng.Intn(len(asns)-1)) % len(asns)
		return topology.MakeLinkKey(asns[a], asns[b])
	}

	type retained struct {
		res     *Result
		links   map[topology.LinkKey][]string
		index   []IndexedLink
		encoded []byte
		fp      uint64
	}
	var kept []retained
	patched, rebuilt := 0, 0

	// materialize snapshots the mesh, indexes the Result unless told not
	// to, and checks the index against the from-scratch oracle.
	materialize := func(step string, index bool) {
		res := ms.Snapshot()
		if !maps.EqualFunc(res.Links, ms.links, slices.Equal[[]string]) {
			t.Fatalf("%s: snapshot's link map differs from the mesh's", step)
		}
		if index {
			if res.linkIndex == nil {
				if res.patch != nil {
					patched++
				} else {
					rebuilt++
				}
			}
			got := res.BuildIndex(testLinkEncoder)
			if res.patch != nil {
				t.Fatalf("%s: BuildIndex left the consumed patch (and the predecessor's index) on the Result", step)
			}
			oracle := &Result{PerIXP: res.PerIXP, Links: make(map[topology.LinkKey][]string, len(res.Links))}
			for k, v := range res.Links {
				oracle.Links[k] = slices.Clone(v)
			}
			if diff := diffLinkIndex(got, newLinkIndex(oracle, testLinkEncoder)); diff != "" {
				t.Fatalf("%s: patched index differs from rebuilt: %s", step, diff)
			}
			if got.Fingerprint != fingerprintLinks(sortedLinks(res.Links)) {
				t.Fatalf("%s: index fingerprint differs from the unindexed hash/fnv walk", step)
			}
			if len(kept) == 0 || kept[len(kept)-1].res != res {
				r := retained{res: res, links: make(map[topology.LinkKey][]string), encoded: bytes.Clone(got.Encoded), fp: got.Fingerprint}
				for k, v := range res.Links {
					r.links[k] = slices.Clone(v)
				}
				for _, l := range got.Links {
					r.index = append(r.index, IndexedLink{Key: l.Key, IXPs: slices.Clone(l.IXPs)})
				}
				kept = append(kept, r)
			}
		}
		// A Result three materializations back still reads its own bytes.
		if len(kept) > 3 {
			r := kept[len(kept)-4]
			x := r.res.linkIndex
			if !maps.EqualFunc(r.res.Links, r.links, slices.Equal[[]string]) ||
				!slices.EqualFunc(x.Links, r.index, func(a, b IndexedLink) bool { return a.Key == b.Key && slices.Equal(a.IXPs, b.IXPs) }) ||
				!bytes.Equal(x.Encoded, r.encoded) || x.Fingerprint != r.fp {
				t.Fatalf("%s: a retained Result drifted after later windows", step)
			}
		}
	}

	// Scripted opening: empty mesh, indexed; a first link; links before
	// the first and after the last position; a move that cancels out.
	materialize("empty", true)
	mid := topology.MakeLinkKey(asns[10], asns[11])
	toggle(mid, "ECIX")
	materialize("first link", true)
	toggle(topology.MakeLinkKey(1, 2), "DE-CIX")
	toggle(topology.MakeLinkKey(4000000000, 4000000001), "MSK-IX")
	materialize("front and back inserts", true)
	toggle(topology.MakeLinkKey(3, 4), "DE-CIX")
	toggle(topology.MakeLinkKey(3, 4), "DE-CIX")
	toggle(mid, "DE-CIX")
	toggle(mid, "DE-CIX")
	materialize("cancelled moves", true)
	toggle(mid, "DE-CIX")
	toggle(mid, "MSK-IX") // 1 -> 3 IXPs
	materialize("one to three IXPs", true)
	toggle(mid, "ECIX") // 3 -> 2, dropping the middle name
	materialize("three to two IXPs", true)

	for step := 0; step < 400; step++ {
		for n := rng.Intn(13); n > 0; n-- {
			key, name := randomKey(), names[rng.Intn(len(names))]
			toggle(key, name)
			if rng.Intn(6) == 0 {
				toggle(key, name) // add-then-remove (or the reverse) inside one window
			}
		}
		ms.CloseStability()
		if rng.Intn(10) < 6 {
			materialize(fmt.Sprintf("step %d", step), rng.Intn(10) < 8)
		}
	}

	// Drain to empty again through the patch.
	materialize("before drain", true)
	for _, name := range names {
		for key := range maps.Clone(ms.byName[name].links) {
			toggle(key, name)
		}
	}
	materialize("drained", true)
	if got := ms.snap.linkIndex; len(got.Links) != 0 || string(got.Encoded) != "[]" {
		t.Fatalf("drained mesh indexes %d links, encoded %q", len(got.Links), got.Encoded)
	}
	if patched < 100 || rebuilt < 10 {
		t.Fatalf("sweep patched %d indexes and rebuilt %d: both paths must be exercised", patched, rebuilt)
	}
}

// TestBuildIndexEncodesWithoutEncodedBase covers the two ways an encoder
// can arrive after the bytes it would splice from were never made: an
// index first built without one is encoded in place on the first call
// that brings one, and a patch whose base carries no encoding encodes
// every link instead of splicing.
func TestBuildIndexEncodesWithoutEncodedBase(t *testing.T) {
	ms := NewMeshState(testDict(t))
	add := func(a, b bgp.ASN, name string) {
		mi := ms.byName[name]
		mi.stale = true
		ms.addLink(mi, a, b)
	}
	add(100, 200, "DE-CIX")
	add(100, 400, "MSK-IX")
	first := ms.Snapshot()
	x := first.BuildIndex(nil)
	if x.Encoded != nil {
		t.Fatalf("an index built without an encoder carries %q", x.Encoded)
	}

	add(100, 200, "MSK-IX")
	add(600, 700, "ECIX")
	second := ms.Snapshot()
	if second.patch == nil || second.patch.base != x {
		t.Fatal("the second Result does not patch the first one's index")
	}
	got := second.BuildIndex(testLinkEncoder)
	oracle := &Result{PerIXP: second.PerIXP, Links: maps.Clone(second.Links)}
	if diff := diffLinkIndex(got, newLinkIndex(oracle, testLinkEncoder)); diff != "" {
		t.Fatalf("patch over an unencoded base: %s", diff)
	}

	if first.BuildIndex(testLinkEncoder) != x {
		t.Fatal("a late encoder rebuilt the index")
	}
	oracle = &Result{PerIXP: first.PerIXP, Links: maps.Clone(first.Links)}
	if diff := diffLinkIndex(x, newLinkIndex(oracle, testLinkEncoder)); diff != "" {
		t.Fatalf("late encode: %s", diff)
	}
}
