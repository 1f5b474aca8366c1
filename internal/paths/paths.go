// Package paths provides an interned, columnar AS-path store. Collector
// archives contain the same AS path thousands of times (once per prefix
// per feeder); storing each distinct path once — all hops in one shared
// backing arena, addressed by a small integer ID — removes the per-record
// path allocation that used to dominate the passive pipeline, and gives
// every consumer (link extraction, relationship inference, setter
// pinpointing) O(1) access to the deduplicated path set.
package paths

import (
	"slices"

	"mlpeering/internal/bgp"
)

// ID names one distinct AS path within a Store.
type ID int32

// Store interns AS paths: each distinct path is stored exactly once in a
// shared backing arena and addressed by ID. The zero Store is not ready
// for use; call NewStore.
//
// Dedup is keyed by a 64-bit hash of the collapsed hops, so no per-path
// key is built or stored. A hash hit counts only when the hops match
// exactly; distinct paths that share a hash are kept apart by a
// collision list, which real inputs practically never reach.
type Store struct {
	arena   []bgp.ASN // all hops of all distinct paths, concatenated
	off     []int32   // path id -> [off[id], off[id+1]) into arena
	lookup  map[uint64]ID
	collide map[uint64][]ID // the later paths of a hash lookup already holds
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{off: []int32{0}, lookup: make(map[uint64]ID)}
}

// Len returns the number of distinct paths interned.
func (s *Store) Len() int { return len(s.off) - 1 }

// Path returns the hops of path id as a slice into the shared arena.
// Callers must not modify it.
func (s *Store) Path(id ID) []bgp.ASN {
	return s.arena[s.off[id]:s.off[id+1]:s.off[id+1]]
}

// hashSeed is the hash of the empty path; mixHop folds one hop into a
// running hash (a multiply-xorshift step, so every hop reaches all 64
// bits).
const hashSeed uint64 = 0xcbf29ce484222325

func mixHop(h uint64, a bgp.ASN) uint64 {
	h = (h ^ uint64(a)) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// appendHop appends a to the candidate path at the arena tail beginning
// at start unless it repeats the previous hop (BGP prepending), and
// returns the running hash of the collapsed tail.
func (s *Store) appendHop(start int, h uint64, a bgp.ASN) uint64 {
	if len(s.arena) > start && s.arena[len(s.arena)-1] == a {
		return h
	}
	s.arena = append(s.arena, a)
	return mixHop(h, a)
}

// commit finishes an intern whose candidate hops, hashing to h, sit at
// the arena tail beginning at start: dedup-lookup, rolling the arena
// back on a hit.
func (s *Store) commit(start int, h uint64) ID {
	tail := s.arena[start:]
	first, ok := s.lookup[h]
	if ok {
		if slices.Equal(s.Path(first), tail) {
			s.arena = s.arena[:start] // duplicate: drop the tail copy
			return first
		}
		for _, id := range s.collide[h] {
			if slices.Equal(s.Path(id), tail) {
				s.arena = s.arena[:start]
				return id
			}
		}
	}
	id := ID(len(s.off) - 1)
	s.off = append(s.off, int32(len(s.arena)))
	if !ok {
		s.lookup[h] = id
		return id
	}
	if s.collide == nil {
		s.collide = make(map[uint64][]ID)
	}
	s.collide[h] = append(s.collide[h], id)
	return id
}

// Intern adds the path (collapsing adjacent duplicate hops, i.e. BGP
// prepending) and returns its ID. Re-interning an identical path returns
// the existing ID without allocating.
func (s *Store) Intern(path []bgp.ASN) ID {
	start, h := len(s.arena), hashSeed
	for _, a := range path {
		h = s.appendHop(start, h, a)
	}
	return s.commit(start, h)
}

// InternASPath interns the flattened, prepending-collapsed form of a
// wire AS_PATH without materializing an intermediate slice.
func (s *Store) InternASPath(p bgp.ASPath) ID {
	start, h := len(s.arena), hashSeed
	for _, seg := range p {
		for _, a := range seg.ASNs {
			h = s.appendHop(start, h, a)
		}
	}
	return s.commit(start, h)
}

// View is an ordered subset of a store's paths: the unit consumers
// iterate (e.g. the hygiene-surviving public paths of the passive
// pipeline).
type View struct {
	store *Store
	ids   []ID
}

// NewView builds a view over ids (not copied).
func NewView(s *Store, ids []ID) View { return View{store: s, ids: ids} }

// Len returns the number of paths in the view.
func (v View) Len() int { return len(v.ids) }

// ID returns the store ID of the i-th path.
func (v View) ID(i int) ID { return v.ids[i] }

// Path returns the i-th path, a slice into the store arena.
func (v View) Path(i int) []bgp.ASN { return v.store.Path(v.ids[i]) }

// Store returns the backing store.
func (v View) Store() *Store { return v.store }

// Records is the columnar (path, communities, prefix, stability) table
// mined from collector archives: one row per announcement, with the AS
// path held in the interned store so repeated announcements of the same
// path cost four bytes, not a slice.
type Records struct {
	store  *Store
	PathID []ID
	Comms  []bgp.Communities
	Prefix []bgp.Prefix
	Stable []bool
}

// NewRecords returns an empty record table backed by store, its
// columns sized for n rows.
func NewRecords(store *Store, n int) *Records {
	return &Records{
		store:  store,
		PathID: make([]ID, 0, n),
		Comms:  make([]bgp.Communities, 0, n),
		Prefix: make([]bgp.Prefix, 0, n),
		Stable: make([]bool, 0, n),
	}
}

// Len returns the number of rows.
func (r *Records) Len() int { return len(r.PathID) }

// Add appends one row.
func (r *Records) Add(id ID, comms bgp.Communities, prefix bgp.Prefix, stable bool) {
	r.PathID = append(r.PathID, id)
	r.Comms = append(r.Comms, comms)
	r.Prefix = append(r.Prefix, prefix)
	r.Stable = append(r.Stable, stable)
}

// Path returns the path of row i.
func (r *Records) Path(i int) []bgp.ASN { return r.store.Path(r.PathID[i]) }
