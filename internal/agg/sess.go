package agg

import "phasemon/internal/wire"

// sessTable is an exact per-bucket session→sample-count table:
// open-addressed with splitmix64 hashing and linear probing, growable
// so counts are never approximated — an approximate (fixed-slot,
// evicting) table would make the bucket's top-session list depend on
// which sessions collided, and therefore on the shard count, breaking
// the pipeline's bit-determinism contract. Growth only happens on
// first sight of a session id; the table is reset (capacity kept)
// when its bucket's slot is reused, so steady-state ingest of a
// stable session population allocates nothing.
//
// Key 0 is the empty-slot sentinel, so session id 0 is carried in a
// dedicated counter.
type sessTable struct {
	keys   []uint64
	counts []uint64
	n      int
	zero   uint64 // samples of session id 0
}

const sessTableMinSize = 16

// mix is the splitmix64 finalizer (the GPHT index uses the same one):
// session ids are often sequential, so without mixing they would
// probe in lockstep.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// reset empties the table, keeping its capacity.
func (t *sessTable) reset() {
	for i := range t.keys {
		t.keys[i] = 0
	}
	t.n = 0
	t.zero = 0
}

// add counts n samples for a session.
func (t *sessTable) add(id, n uint64) {
	if id == 0 {
		t.zero += n
		return
	}
	if len(t.keys) == 0 {
		t.keys = make([]uint64, sessTableMinSize)
		t.counts = make([]uint64, sessTableMinSize)
	}
	mask := uint64(len(t.keys) - 1)
	i := mix(id) & mask
	for t.keys[i] != 0 {
		if t.keys[i] == id {
			t.counts[i] += n
			return
		}
		i = (i + 1) & mask
	}
	// First sight: insert, growing at 3/4 load so probes stay short.
	if 4*(t.n+1) > 3*len(t.keys) {
		t.grow()
		mask = uint64(len(t.keys) - 1)
		i = mix(id) & mask
		for t.keys[i] != 0 {
			i = (i + 1) & mask
		}
	}
	t.keys[i] = id
	t.counts[i] = n
	t.n++
}

// grow doubles the table and rehashes.
func (t *sessTable) grow() {
	oldKeys, oldCounts := t.keys, t.counts
	t.keys = make([]uint64, 2*len(oldKeys))
	t.counts = make([]uint64, 2*len(oldCounts))
	mask := uint64(len(t.keys) - 1)
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := mix(k) & mask
		for t.keys[j] != 0 {
			j = (j + 1) & mask
		}
		t.keys[j] = k
		t.counts[j] = oldCounts[i]
	}
}

// topLess is the total order of top-session lists: higher count
// first, ties broken by ascending session id. A total order is what
// keeps the list independent of table slot order (and so of hashing,
// growth history, and shard count).
func topLess(aID, aCount, bID, bCount uint64) bool {
	if aCount != bCount {
		return aCount > bCount
	}
	return aID < bID
}

// topK fills out with the table's top sessions under topLess, zeroing
// unused entries. It scans slots in table order but the selection is
// order-independent because topLess is total.
func (t *sessTable) topK(out *[wire.RollupTopK]wire.RollupTop) {
	*out = [wire.RollupTopK]wire.RollupTop{}
	used := 0
	if t.zero > 0 {
		used = topInsert(out, used, 0, t.zero)
	}
	for i, k := range t.keys {
		if k != 0 {
			used = topInsert(out, used, k, t.counts[i])
		}
	}
}

// topInsert places (id, count) into the sorted top list if it ranks,
// returning the new used length.
func topInsert(out *[wire.RollupTopK]wire.RollupTop, used int, id, count uint64) int {
	if used == len(out) {
		last := &out[used-1]
		if !topLess(id, count, last.SessionID, last.Samples) {
			return used
		}
		used--
	}
	i := used
	for i > 0 && topLess(id, count, out[i-1].SessionID, out[i-1].Samples) {
		out[i] = out[i-1]
		i--
	}
	out[i] = wire.RollupTop{SessionID: id, Samples: count}
	return used + 1
}
