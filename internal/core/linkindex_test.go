package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"mlpeering/internal/bgp"
)

// diffLinkIndex compares two indexes field by field — links, hash, CSR
// rows, encoding and the patch bookkeeping riding along — and reads
// got's encoding back through EncodedRun (one link at a time, then all
// of them), returning the first difference, "" when equal.
func diffLinkIndex(got, want *LinkIndex) string {
	if !slices.EqualFunc(got.Links, want.Links, func(a, b IndexedLink) bool {
		return a.Key == b.Key && slices.Equal(a.IXPs, b.IXPs)
	}) {
		return fmt.Sprintf("Links differ: %v, want %v", got.Links, want.Links)
	}
	if got.Fingerprint != want.Fingerprint {
		return fmt.Sprintf("fingerprint %x, want %x", got.Fingerprint, want.Fingerprint)
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
	for i, l := range got.Links {
		if run, enc := got.EncodedRun(i, i+1), AppendLink(nil, l.Key, l.IXPs); !bytes.Equal(run, enc) {
			return fmt.Sprintf("EncodedRun(%d, %d) = %q, want %q", i, i+1, run, enc)
		}
	}
	n := len(got.Links)
	if run, inner := got.EncodedRun(0, n), got.Encoded[1:len(got.Encoded)-1]; !bytes.Equal(run, inner) {
		return fmt.Sprintf("EncodedRun(0, %d) = %q, want the array without its brackets, %q", n, run, inner)
	}
	return ""
}

// TestPatchedIndexEqualsRebuilt drives a MeshState through seeded random
// attribution moves — links appearing, disappearing and moving between
// one, two and three IXPs, including moves that cancel inside one window
// — and checks after every materialized window that the index Snapshot
// patched out of the previous window's equals newLinkIndex over a deep
// copy of the Result. Windows nobody materialized sit in between, the
// mesh starts and ends empty, links land before the first and after the
// last position, and every Result is checked again three
// materializations later, and once more after the last step, against a
// deep copy taken when it was built: copy-on-write must really copy, and
// a link map handed to a Result is never written again.
//
// The mesh closes on one goroutine; the subtest is named for that.
func TestPatchedIndexEqualsRebuilt(t *testing.T) {
	t.Run("workers=1", patchedIndexSweep)
}

func patchedIndexSweep(t *testing.T) {
	ms := newMeshState(newDeltaObservations(testDict(t)))
	rng := rand.New(rand.NewSource(20130501))
	names := []string{"DE-CIX", "ECIX", "MSK-IX"}
	asns := make([]bgp.ASN, 24)
	for i := range asns {
		asns[i] = bgp.ASN(100 + 7*i)
	}

	// toggle flips one (link, IXP) attribution the way Apply does.
	toggle := func(key bgp.LinkKey, name string) {
		x := ms.obs.byIXP[name]
		x.stale = true
		if slices.Contains(ms.links[key], name) {
			ms.removeLink(x, key)
		} else {
			ms.addLink(x, key)
		}
	}
	randomKey := func() bgp.LinkKey {
		a := rng.Intn(len(asns))
		b := (a + 1 + rng.Intn(len(asns)-1)) % len(asns)
		return bgp.MakeLinkKey(asns[a], asns[b])
	}

	type retained struct {
		res     *Result
		links   map[bgp.LinkKey][]string
		index   []IndexedLink
		encoded []byte
		fp      uint64
	}
	var kept []retained
	patched := 0
	checkRetained := func(step string, r retained) {
		x := r.res.linkIndex
		if !maps.EqualFunc(r.res.Links, r.links, slices.Equal[[]string]) ||
			!slices.EqualFunc(x.Links, r.index, func(a, b IndexedLink) bool { return a.Key == b.Key && slices.Equal(a.IXPs, b.IXPs) }) ||
			!bytes.Equal(x.Encoded, r.encoded) || x.Fingerprint != r.fp {
			t.Fatalf("%s: a retained Result drifted after later windows", step)
		}
	}

	// materialize closes the window and snapshots the mesh (a snapshot
	// follows its window's close), then checks the index it came with
	// against the from-scratch oracle.
	materialize := func(step string) {
		prev := ms.snap
		ms.CloseStability()
		res := ms.Snapshot()
		if !maps.EqualFunc(res.Links, ms.links, slices.Equal[[]string]) {
			t.Fatalf("%s: snapshot's link map differs from the mesh's", step)
		}
		got := res.BuildIndex()
		if got != res.linkIndex {
			t.Fatalf("%s: BuildIndex did not return the index Snapshot built", step)
		}
		if prev != nil && got != prev.linkIndex {
			patched++
		}
		if diff := diffLinkIndex(got, newLinkIndex(deepCopyResult(res))); diff != "" {
			t.Fatalf("%s: patched index differs from rebuilt: %s", step, diff)
		}
		h := fnv.New64a()
		h.Write(deepCopyResult(res).AppendMesh(nil))
		if got.Fingerprint != h.Sum64() {
			t.Fatalf("%s: index fingerprint differs from hash/fnv over the mesh encoding", step)
		}
		if len(kept) == 0 || kept[len(kept)-1].res != res {
			r := retained{res: res, links: make(map[bgp.LinkKey][]string), encoded: bytes.Clone(got.Encoded), fp: got.Fingerprint}
			for k, v := range res.Links {
				r.links[k] = slices.Clone(v)
			}
			for _, l := range got.Links {
				r.index = append(r.index, IndexedLink{Key: l.Key, IXPs: slices.Clone(l.IXPs)})
			}
			kept = append(kept, r)
		}
		// A Result three materializations back still reads its own bytes.
		if len(kept) > 3 {
			checkRetained(step, kept[len(kept)-4])
		}
	}

	// Scripted opening: empty mesh, indexed; a first link; links before
	// the first and after the last position; a move that cancels out.
	materialize("empty")
	mid := bgp.MakeLinkKey(asns[10], asns[11])
	toggle(mid, "ECIX")
	materialize("first link")
	toggle(bgp.MakeLinkKey(1, 2), "DE-CIX")
	toggle(bgp.MakeLinkKey(4000000000, 4000000001), "MSK-IX")
	materialize("front and back inserts")
	toggle(bgp.MakeLinkKey(3, 4), "DE-CIX")
	toggle(bgp.MakeLinkKey(3, 4), "DE-CIX")
	toggle(mid, "DE-CIX")
	toggle(mid, "DE-CIX")
	materialize("cancelled moves")
	toggle(mid, "DE-CIX")
	toggle(mid, "MSK-IX") // 1 -> 3 IXPs
	materialize("one to three IXPs")
	toggle(mid, "ECIX") // 3 -> 2, dropping the middle name
	materialize("three to two IXPs")

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
			materialize(fmt.Sprintf("step %d", step))
		}
	}

	// Drain to empty again through the patch.
	materialize("before drain")
	for _, name := range names {
		for key, ixps := range maps.Clone(ms.links) {
			if slices.Contains(ixps, name) {
				toggle(key, name)
			}
		}
	}
	materialize("drained")
	if got := ms.snap.linkIndex; len(got.Links) != 0 || string(got.Encoded) != "[]" {
		t.Fatalf("drained mesh indexes %d links, encoded %q", len(got.Links), got.Encoded)
	}
	if patched < 100 {
		t.Fatalf("sweep patched %d indexes: the patch must be exercised", patched)
	}
	// Every Result, the oldest included, still reads its own links and
	// bytes after the last step.
	for i, r := range kept {
		checkRetained(fmt.Sprintf("after the sweep, Result %d of %d", i, len(kept)), r)
	}
}

// deepCopyResult copies r's links and attribution lists, so an index
// built over the copy shares nothing with r's.
func deepCopyResult(r *Result) *Result {
	c := &Result{PerIXP: r.PerIXP, Links: make(map[bgp.LinkKey][]string, len(r.Links))}
	for k, v := range r.Links {
		c.Links[k] = slices.Clone(v)
	}
	return c
}
