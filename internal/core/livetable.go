package core

import (
	"cmp"
	"slices"

	"mlpeering/internal/bgp"
)

// liveKey identifies one route slot in a collector's view by value.
type liveKey struct {
	peer   bgp.ASN
	prefix bgp.Prefix
}

// compareLiveKeys orders slots by (peer, prefix).
func compareLiveKeys(a, b liveKey) int {
	if a.peer != b.peer {
		return cmp.Compare(a.peer, b.peer)
	}
	return bgp.ComparePrefixes(a.prefix, b.prefix)
}

// slotKey names one live slot by its peer and its prefix's dense ID in
// the liveTable: a pointer-free 8-byte key.
type slotKey struct {
	peer bgp.ASN
	pid  uint32
}

// liveSlot is one occupied slot of a prefix's row.
type liveSlot struct {
	peer bgp.ASN
	g    *windowGroup
}

// liveTable is a replay's live route table: each occupied (peer,
// prefix) slot holds the shape group of the route it carries. A prefix
// is interned once into a dense ID, and each ID keeps one row of its
// occupied slots, which get, set and del scan: at paper scale a row
// holds about 17 peers, so the per-route work of a base load hashes no
// (ASN, netip.Prefix) key and the table holds no pointerful one. Rows
// are unordered; walks sort their slots with compareLiveKeys.
type liveTable struct {
	ids      map[bgp.Prefix]uint32
	prefixes []bgp.Prefix // by ID
	rows     [][]liveSlot // by ID
	n        int          // occupied slots
}

func newLiveTable() *liveTable {
	return &liveTable{ids: make(map[bgp.Prefix]uint32)}
}

// intern returns p's ID, assigning the next one on first sight, and
// makes room in its row for extra more slots.
func (t *liveTable) intern(p bgp.Prefix, extra int) uint32 {
	pid, ok := t.ids[p]
	if !ok {
		pid = uint32(len(t.prefixes))
		t.ids[p] = pid
		t.prefixes = append(t.prefixes, p)
		t.rows = append(t.rows, nil)
	}
	t.rows[pid] = slices.Grow(t.rows[pid], extra)
	return pid
}

// get returns the group the slot holds, nil when it is empty.
//
//mlplint:allocfree
func (t *liveTable) get(peer bgp.ASN, pid uint32) *windowGroup {
	for _, s := range t.rows[pid] {
		if s.peer == peer {
			return s.g
		}
	}
	return nil
}

// set puts g in the slot and returns the group it replaced, nil when
// the slot was empty. A replacement writes the row in place; only a
// slot new to a full row grows it.
//
//mlplint:allocfree
func (t *liveTable) set(peer bgp.ASN, pid uint32, g *windowGroup) *windowGroup {
	row := t.rows[pid]
	for i := range row {
		if row[i].peer == peer {
			old := row[i].g
			row[i].g = g
			return old
		}
	}
	t.rows[pid] = append(row, liveSlot{peer, g})
	t.n++
	return nil
}

// del empties the slot and returns the group it held, nil when it was
// already empty. The row's last slot takes the freed place.
func (t *liveTable) del(peer bgp.ASN, pid uint32) *windowGroup {
	row := t.rows[pid]
	for i := range row {
		if row[i].peer == peer {
			old := row[i].g
			last := len(row) - 1
			row[i] = row[last]
			row[last] = liveSlot{}
			t.rows[pid] = row[:last]
			t.n--
			return old
		}
	}
	return nil
}

// slots returns every occupied slot in compareLiveKeys order.
func (t *liveTable) slots() []slotKey {
	keys := make([]slotKey, 0, t.n)
	for pid, row := range t.rows {
		for _, s := range row {
			keys = append(keys, slotKey{s.peer, uint32(pid)})
		}
	}
	t.sortSlots(keys)
	return keys
}

// sortSlots sorts keys in compareLiveKeys order: by peer, then by
// prefix.
func (t *liveTable) sortSlots(keys []slotKey) {
	slices.SortFunc(keys, func(a, b slotKey) int {
		return compareLiveKeys(liveKey{a.peer, t.prefixes[a.pid]}, liveKey{b.peer, t.prefixes[b.pid]})
	})
}
