package core

// phtIndex maps PHT tags to slots with open addressing so a steady-state
// Observe never touches the heap: lookups, inserts after an eviction,
// and deletes all work in the one fixed array allocated at
// construction. It replaces the map the GPHT used to mirror its
// associative search with — a map insert can grow buckets mid-run,
// which shows up as per-interval allocations inside the PMI handler.
// Each cell holds a key beside its slot, so a probe touches one cache
// line rather than one in each of two parallel arrays: with many
// sessions' tables interleaved on one worker, the probe is a cold miss
// more often than not.
//
// The table is sized to the next power of two at or above twice the
// PHT capacity, so the load factor never exceeds one half and linear
// probe chains stay short. Deletion uses backward-shift compaction
// (rather than tombstones), which keeps probe chains canonical no
// matter how many evictions a long run performs.
type phtIndex struct {
	cells []phtCell
	mask  uint64
}

// phtCell is one open-addressing cell: 16 bytes, so four share a cache
// line and none straddles one.
type phtCell struct {
	key  uint64
	slot int32 // slot+1; 0 marks an empty cell
}

// newPHTIndex builds an index able to hold capacity entries.
func newPHTIndex(capacity int) *phtIndex {
	n := 4
	for n < 2*capacity {
		n <<= 1
	}
	return &phtIndex{
		cells: make([]phtCell, n),
		mask:  uint64(n - 1),
	}
}

// hashTag finalizes a packed GPHR tag into a well-mixed table index.
// Tags are dense bit patterns (4 bits per phase), so without mixing,
// similar histories would collide in the low bits. This is the
// splitmix64 finalizer.
func hashTag(t uint64) uint64 {
	t ^= t >> 30
	t *= 0xbf58476d1ce4e5b9
	t ^= t >> 27
	t *= 0x94d049bb133111eb
	t ^= t >> 31
	return t
}

// get returns the slot stored for tag.
func (ix *phtIndex) get(tag uint64) (slot int, ok bool) {
	i := hashTag(tag) & ix.mask
	for c := &ix.cells[i]; c.slot != 0; c = &ix.cells[i] {
		if c.key == tag {
			return int(c.slot - 1), true
		}
		i = (i + 1) & ix.mask
	}
	return 0, false
}

// put inserts or replaces the slot stored for tag.
func (ix *phtIndex) put(tag uint64, slot int) {
	i := hashTag(tag) & ix.mask
	for ix.cells[i].slot != 0 && ix.cells[i].key != tag {
		i = (i + 1) & ix.mask
	}
	ix.cells[i] = phtCell{key: tag, slot: int32(slot + 1)}
}

// del removes tag, compacting the probe chain behind it so later
// lookups still find every remaining entry.
func (ix *phtIndex) del(tag uint64) {
	i := hashTag(tag) & ix.mask
	for {
		if ix.cells[i].slot == 0 {
			return
		}
		if ix.cells[i].key == tag {
			break
		}
		i = (i + 1) & ix.mask
	}
	// Backward-shift deletion: walk the chain after i and move back any
	// entry whose home position precedes the hole.
	hole := i
	j := i
	for {
		j = (j + 1) & ix.mask
		if ix.cells[j].slot == 0 {
			break
		}
		home := hashTag(ix.cells[j].key) & ix.mask
		// The entry at j may fill the hole iff the hole lies within
		// [home, j] cyclically — i.e. probing from home reaches the hole
		// no later than j.
		if (j-home)&ix.mask >= (j-hole)&ix.mask {
			ix.cells[hole] = ix.cells[j]
			hole = j
		}
	}
	ix.cells[hole] = phtCell{}
}

// reset empties the index in place, without reallocating.
func (ix *phtIndex) reset() { clear(ix.cells) }
