package paths

import (
	"fmt"
	"slices"
	"testing"

	"mlpeering/internal/bgp"
)

func TestInternDedup(t *testing.T) {
	s := NewStore()
	a := s.Intern([]bgp.ASN{1, 2, 3})
	b := s.Intern([]bgp.ASN{1, 2, 3})
	if a != b {
		t.Fatalf("identical paths got distinct ids %d, %d", a, b)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	c := s.Intern([]bgp.ASN{1, 2, 4})
	if c == a {
		t.Fatal("distinct paths share an id")
	}
	got := s.Path(a)
	want := []bgp.ASN{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Path(%d) = %v", a, got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Path(%d) = %v, want %v", a, got, want)
		}
	}
}

func TestInternCollapsesPrepending(t *testing.T) {
	s := NewStore()
	a := s.Intern([]bgp.ASN{1, 1, 1, 2, 3, 3})
	b := s.Intern([]bgp.ASN{1, 2, 3})
	if a != b {
		t.Fatal("prepended path must intern to its collapsed form")
	}
	if len(s.arena) != 3 {
		t.Fatalf("arena holds %d hops, want 3", len(s.arena))
	}
}

func TestInternASPath(t *testing.T) {
	s := NewStore()
	p := bgp.ASPath{
		{ASNs: []bgp.ASN{10, 10, 20}},
		{ASNs: []bgp.ASN{20, 30}},
	}
	a := s.InternASPath(p)
	b := s.Intern([]bgp.ASN{10, 20, 30})
	if a != b {
		t.Fatal("InternASPath must flatten and collapse like Intern")
	}
}

func TestInternEmptyPath(t *testing.T) {
	s := NewStore()
	a := s.Intern(nil)
	if got := s.Path(a); len(got) != 0 {
		t.Fatalf("empty path = %v", got)
	}
	if b := s.Intern([]bgp.ASN{}); b != a {
		t.Fatal("empty paths must share an id")
	}
}

func TestViewAndRecords(t *testing.T) {
	s := NewStore()
	a := s.Intern([]bgp.ASN{1, 2})
	bID := s.Intern([]bgp.ASN{3, 4})
	v := NewView(s, []ID{bID, a})
	if v.Len() != 2 || v.Path(0)[0] != 3 || v.Path(1)[0] != 1 {
		t.Fatalf("view order wrong: %v %v", v.Path(0), v.Path(1))
	}

	r := NewRecords(s, 2)
	pfx := bgp.MustPrefix("10.0.0.0/24")
	r.Add(a, nil, pfx, true)
	r.Add(bID, bgp.Communities{1}, pfx, false)
	if r.Len() != 2 || r.Path(0)[0] != 1 || !r.Stable[0] || r.Stable[1] {
		t.Fatalf("records wrong: %+v", r)
	}
}

// internHashed interns an already collapsed path under the forced hash h.
func internHashed(s *Store, path []bgp.ASN, h uint64) ID {
	start := len(s.arena)
	s.arena = append(s.arena, path...)
	return s.commit(start, h)
}

// TestInternHashCollision pins the collision list, which real paths
// practically never reach: distinct paths filed under one hash keep
// distinct IDs, each re-intern finds its own, and every path reads back
// unchanged.
func TestInternHashCollision(t *testing.T) {
	s := NewStore()
	other := s.Intern([]bgp.ASN{7, 8, 9})
	pp := [][]bgp.ASN{{1, 2, 3}, {4}, {}, {1, 2}, {3, 2, 1}}
	ids := make([]ID, len(pp))
	for i, p := range pp {
		ids[i] = internHashed(s, p, 42)
		if slices.Contains(ids[:i], ids[i]) || ids[i] == other {
			t.Fatalf("path %v got id %d, already taken (ids %v, other %d)", p, ids[i], ids[:i], other)
		}
	}
	hops := len(s.arena)
	for round := 0; round < 2; round++ {
		for i, p := range pp {
			if id := internHashed(s, p, 42); id != ids[i] {
				t.Fatalf("re-interning %v returned %d, want %d", p, id, ids[i])
			}
		}
	}
	if s.Len() != len(pp)+1 || len(s.arena) != hops {
		t.Fatalf("re-interns grew the store: Len %d, %d hops, want %d and %d", s.Len(), len(s.arena), len(pp)+1, hops)
	}
	for i, p := range pp {
		if got := s.Path(ids[i]); !slices.Equal(got, p) {
			t.Fatalf("Path(%d) = %v, want %v", ids[i], got, p)
		}
	}
	if got := s.Intern([]bgp.ASN{7, 7, 8, 9}); got != other {
		t.Fatalf("a path outside the collision list re-interned to %d, want %d", got, other)
	}
}

// FuzzStoreIntern checks Intern and InternASPath against a map oracle
// keyed by the collapsed hops: IDs are handed out in first-seen order,
// prepending collapses (across AS_PATH segments too), and every ID
// reads back its collapsed path. Each path is a length byte (mod 9)
// followed by that many hop bytes over a six-ASN alphabet, so paths
// repeat and prepend often; a length byte with its top bit set interns
// through InternASPath, split into two segments.
func FuzzStoreIntern(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 3, 1, 2, 3})
	f.Add([]byte{4, 1, 1, 2, 2, 0x82, 1, 2, 0, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore()
		oracle := make(map[string]ID)
		var want [][]bgp.ASN
		for len(data) > 0 {
			n := min(int(data[0]&0x7f)%9, len(data)-1)
			viaASPath := data[0]&0x80 != 0
			path := make([]bgp.ASN, n)
			for i, b := range data[1 : 1+n] {
				path[i] = bgp.ASN(b % 6)
			}
			data = data[1+n:]

			var collapsed []bgp.ASN
			for _, a := range path {
				if len(collapsed) == 0 || collapsed[len(collapsed)-1] != a {
					collapsed = append(collapsed, a)
				}
			}
			key := fmt.Sprint(collapsed)
			wantID, seen := oracle[key]
			if !seen {
				wantID = ID(len(want))
				oracle[key] = wantID
				want = append(want, collapsed)
			}

			var got ID
			if viaASPath {
				got = s.InternASPath(bgp.ASPath{{ASNs: path[:n/2]}, {ASNs: path[n/2:]}})
			} else {
				got = s.Intern(path)
			}
			if got != wantID {
				t.Fatalf("interning %v returned %d, want %d", path, got, wantID)
			}
		}
		if s.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(want))
		}
		hops := 0
		for id, p := range want {
			hops += len(p)
			if got := s.Path(ID(id)); !slices.Equal(got, p) {
				t.Fatalf("Path(%d) = %v, want %v", id, got, p)
			}
		}
		if len(s.arena) != hops {
			t.Fatalf("arena holds %d hops, want %d", len(s.arena), hops)
		}
	})
}

func BenchmarkInternHit(b *testing.B) {
	s := NewStore()
	p := []bgp.ASN{64500, 3356, 6695, 196615, 8359}
	s.Intern(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Intern(p)
	}
}
