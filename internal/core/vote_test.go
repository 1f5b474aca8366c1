package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
)

// textVote is the majority vote as Observations' filters and Consistency
// counted it when they keyed classes on text: by Dedup().String(), ties
// to the smallest key. It is the reference the binary-keyed vote must
// agree with; it returns the winning key, a member of its class and the
// votes of every class.
func textVote(pm map[bgp.Prefix]bgp.Communities) (string, bgp.Communities, map[string]int) {
	votes := make(map[string]int)
	repr := make(map[string]bgp.Communities)
	for _, cs := range pm {
		key := cs.Dedup().String()
		votes[key]++
		repr[key] = cs
	}
	bestKey, bestVotes := "", -1
	for k, v := range votes {
		if v > bestVotes || (v == bestVotes && k < bestKey) {
			bestKey, bestVotes = k, v
		}
	}
	return bestKey, repr[bestKey], votes
}

// textConsistency is Consistency over textVote's counts.
func textConsistency(o *Observations, ixpName string) ConsistencyStats {
	var st ConsistencyStats
	var deviantSum float64
	for _, setter := range o.Setters(ixpName) {
		pm := o.ixps[ixpName][setter].prefixes
		st.Setters++
		_, _, votes := textVote(pm)
		if len(votes) <= 1 {
			continue
		}
		st.InconsistentSetters++
		top := 0
		for _, v := range votes {
			top = max(top, v)
		}
		deviantSum += float64(len(pm)-top) / float64(len(pm))
	}
	if st.InconsistentSetters > 0 {
		st.DeviantPrefixFrac = deviantSum / float64(st.InconsistentSetters)
	}
	return st
}

// TestVoteMatchesTextualReference pins the binary-keyed vote to the
// textual one on random per-setter vote tables full of equal-vote ties,
// over community sets whose text and value orders disagree: "65000:10"
// sorts before "65000:9" as text and after it as a value, and so do
// "no-advertise" and "no-export", or "65535:65535" and "no-export".
// Each set shows up in shuffled orders and with repeats, which must not
// split its class. The delta-maintained twin, fed the same
// observations, must reconstruct the same filters.
func TestVoteMatchesTextualReference(t *testing.T) {
	const rsASN = 9033
	scheme := ixp.PrivateRangeScheme(rsASN)
	alphabet := []bgp.Community{
		bgp.CommunityNoExport, bgp.CommunityNoAdvertise, bgp.CommunityNoExportSubconfed,
		bgp.MakeCommunity(65535, 65535),
		bgp.MakeCommunity(65000, 9), bgp.MakeCommunity(65000, 10), bgp.MakeCommunity(65000, 100),
		bgp.MakeCommunity(64960, 9), bgp.MakeCommunity(64960, 10),
		scheme.All, scheme.None, bgp.MakeCommunity(0, 9),
	}
	rng := rand.New(rand.NewSource(20130501))
	randomSet := func() bgp.Communities {
		cs := make(bgp.Communities, rng.Intn(4))
		for i := range cs {
			cs[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return cs
	}
	// A class shows up as any order of its values, some repeated.
	spell := func(class bgp.Communities) bgp.Communities {
		cs := class.Clone()
		for range rng.Intn(2) {
			if len(class) > 0 {
				cs = append(cs, class[rng.Intn(len(class))])
			}
		}
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		return cs
	}

	const ixpName = "ECIX"
	dict := testDict(t)
	entry := dict.ByName(ixpName)
	obs := NewObservations()
	delta := newDeltaObservations(dict)
	add := func(setter bgp.ASN, p bgp.Prefix, cs bgp.Communities) {
		obs.Add(ixpName, setter, p, cs, ObsPassive)
		delta.add(delta.byIXP[ixpName], setter, p, cs.Dedup().String(), cs, 1)
	}
	prefix := func(setter bgp.ASN, i int) bgp.Prefix {
		return bgp.MustPrefix(fmt.Sprintf("10.%d.%d.0/24", setter%256, i))
	}

	// Fixed two-way ties whose text order is not their value order.
	ties := [][2]bgp.Communities{
		{{bgp.MakeCommunity(65000, 9)}, {bgp.MakeCommunity(65000, 10)}},
		{{bgp.CommunityNoExport, bgp.MakeCommunity(65000, 10)}, {bgp.MakeCommunity(65000, 9)}},
		{{bgp.CommunityNoExport}, {bgp.CommunityNoAdvertise}},
		{{bgp.CommunityNoExport, bgp.MakeCommunity(65000, 9)}, {bgp.MakeCommunity(65535, 65535), bgp.MakeCommunity(65000, 10)}},
	}
	setter := bgp.ASN(1)
	for _, tie := range ties {
		for i := 0; i < 4; i++ {
			add(setter, prefix(setter, i), spell(tie[i%2]))
		}
		setter++
	}
	// Random tables: a few classes, a few prefixes each, so equal
	// votes are common.
	for ; setter <= 400; setter++ {
		classes := make([]bgp.Communities, 1+rng.Intn(4))
		for i := range classes {
			classes[i] = randomSet()
		}
		for i := range 1 + rng.Intn(8) {
			add(setter, prefix(setter, i), spell(classes[rng.Intn(len(classes))]))
		}
	}

	var tally voteTally
	covered, twins := obs.CoveredSetters(entry), delta.CoveredSetters(entry)
	if len(covered) != len(obs.Setters(ixpName)) || len(twins) != len(covered) {
		t.Fatalf("%d covered setters, %d delta-maintained, %d observed", len(covered), len(twins), len(obs.Setters(ixpName)))
	}
	for i, c := range covered {
		s := c.ASN
		pm := obs.ixps[ixpName][s].prefixes
		wantKey, wantRepr, wantVotes := textVote(pm)
		tally.count(pm)
		if len(tally.classes) != len(wantVotes) {
			t.Fatalf("setter %d: %d classes, textual reference has %d", s, len(tally.classes), len(wantVotes))
		}
		for _, c := range tally.classes {
			if k := c.repr.Dedup().String(); c.votes != wantVotes[k] {
				t.Fatalf("setter %d: class %q has %d votes, textual reference %d", s, k, c.votes, wantVotes[k])
			}
		}
		if got := tally.winner().Dedup().String(); got != wantKey {
			t.Fatalf("setter %d: winner %q, textual reference %q (votes %v)", s, got, wantKey, wantVotes)
		}

		want := ixp.FilterFromCommunities(wantRepr, scheme)
		if got := c.Filter; !got.Equal(want) {
			t.Fatalf("setter %d: filter = %v, textual reference %v", s, got, want)
		}
		if twin := twins[i]; twin.ASN != s || !twin.Filter.Equal(c.Filter) {
			t.Fatalf("setter %d: DeltaObservations covers AS%d with %v, Observations %v", s, twin.ASN, twin.Filter, c.Filter)
		}
	}
	if got, want := obs.Consistency(ixpName), textConsistency(obs, ixpName); got != want {
		t.Fatalf("Consistency = %+v, textual reference %+v", got, want)
	}
}
