package core

import (
	"maps"
	"slices"
	"testing"

	"mlpeering/internal/bgp"
)

// FuzzLiveTable checks the live table against a map oracle. Every three
// input bytes are one call: the first picks intern, set, del or get
// (low two bits) and the group a set stores, the second the peer (and
// an intern's row reservation), the third the prefix. set, del and get
// reach their prefix through intern, so every call also checks that an
// interned prefix keeps its dense ID. After every call the table's
// slot count and its sorted walk must equal the oracle's. The prefixes
// include IPv6 ones and the IPv4-mapped twin of an IPv4 one, which must
// stay a slot of its own. Seeds live under testdata/fuzz.
func FuzzLiveTable(f *testing.F) {
	prefixes := []bgp.Prefix{
		bgp.MustPrefix("10.0.0.0/24"),
		bgp.MustPrefix("10.0.0.0/25"),
		bgp.MustPrefix("::ffff:10.0.0.0/120"),
		bgp.MustPrefix("2001:db8::/32"),
		bgp.MustPrefix("2001:db8::/48"),
		bgp.MustPrefix("0.0.0.0/0"),
	}
	peers := []bgp.ASN{100, 200, 300, 4200000000}
	groups := []*windowGroup{{path: 1}, {path: 2}, {path: 3}}
	f.Fuzz(func(t *testing.T, data []byte) {
		lt := newLiveTable()
		ids := make(map[bgp.Prefix]uint32)
		oracle := make(map[liveKey]*windowGroup)
		intern := func(p bgp.Prefix, extra int) uint32 {
			pid := lt.intern(p, extra)
			want, ok := ids[p]
			if !ok {
				want = uint32(len(ids))
				ids[p] = want
			}
			if pid != want || lt.prefixes[pid] != p {
				t.Fatalf("intern(%v) = %d holding %v, want %d", p, pid, lt.prefixes[pid], want)
			}
			return pid
		}
		for ; len(data) >= 3; data = data[3:] {
			op, peer, p := data[0], peers[int(data[1])%len(peers)], prefixes[int(data[2])%len(prefixes)]
			k := liveKey{peer, p}
			switch op % 4 {
			case 0:
				intern(p, int(data[1])%4)
			case 1:
				g := groups[int(op/4)%len(groups)]
				if old := lt.set(peer, intern(p, 0), g); old != oracle[k] {
					t.Fatalf("set %v replaced %v, oracle held %v", k, old, oracle[k])
				}
				oracle[k] = g
			case 2:
				if old := lt.del(peer, intern(p, 0)); old != oracle[k] {
					t.Fatalf("del %v emptied %v, oracle held %v", k, old, oracle[k])
				}
				delete(oracle, k)
			case 3:
				if g := lt.get(peer, intern(p, 0)); g != oracle[k] {
					t.Fatalf("get %v = %v, oracle holds %v", k, g, oracle[k])
				}
			}
			if lt.n != len(oracle) {
				t.Fatalf("after %v: %d slots, oracle holds %d", k, lt.n, len(oracle))
			}
			want := slices.SortedFunc(maps.Keys(oracle), compareLiveKeys)
			got := lt.slots()
			if len(got) != len(want) {
				t.Fatalf("after %v: walk yields %d slots, oracle holds %d", k, len(got), len(want))
			}
			for i, s := range got {
				gk := liveKey{s.peer, lt.prefixes[s.pid]}
				if gk != want[i] || lt.get(s.peer, s.pid) != oracle[gk] {
					t.Fatalf("after %v: walk slot %d is %v holding %v, want %v holding %v",
						k, i, gk, lt.get(s.peer, s.pid), want[i], oracle[want[i]])
				}
			}
		}
	})
}
