package seq

import "math/bits"

// Slot sentinels. No k-mer of a KmerCoder sets the top base of Hi
// (MaxK = 63 keeps it spare), so neither value collides with a key.
var (
	emptySlot = Kmer{Hi: ^uint64(0), Lo: ^uint64(0)}     // never occupied
	deadSlot  = Kmer{Hi: ^uint64(0), Lo: ^uint64(0) - 1} // tombstone of a deleted key
)

// isKey tells a k-mer from the two slot sentinels.
func isKey(km Kmer) bool { return km.Hi != ^uint64(0) }

// KmerTable maps k-mers to uint32 counts by open addressing with linear
// probing. A key keeps its slot number until an insertion re-lays the
// table (to grow it, or to shed the tombstones deletions leave), so
// between insertions callers may hold per-key state in slices indexed
// by slot, and Each visits slots in index order, so nothing built from
// a table inherits a randomized map order. At least a quarter of the
// slots are always empty, which is what ends every probe; the zero
// value is not usable, NewKmerTable makes one.
//
// The home slot is the top bits of Kmer.Hash. The MPI rank partition
// is Hash()%size, so every key of one partition agrees in its low
// bits: indexing by those would pile a partition's table into 1/size
// of its slots.
type KmerTable struct {
	keys  []Kmer
	vals  []uint32
	shift uint // 64 - log2(len(keys))
	live  int  // keys present
	used  int  // keys present + tombstones
}

// NewKmerTable returns a table that takes n keys without growing.
func NewKmerTable(n int) *KmerTable {
	t := &KmerTable{}
	t.rehash(n)
	return t
}

// rehash moves the keys present into a fresh table that holds n keys
// at a load factor of at most 3/4, dropping the tombstones.
func (t *KmerTable) rehash(n int) {
	slots := 1 << bits.Len(uint(max(n+n/3, 7)))
	old := *t
	*t = KmerTable{keys: make([]Kmer, slots), vals: make([]uint32, slots), shift: uint(64 - bits.TrailingZeros(uint(slots)))}
	for i := range t.keys {
		t.keys[i] = emptySlot
	}
	old.Each(func(_ int, km Kmer, v uint32) { t.Add(km, v) })
}

// Len reports the number of keys present.
func (t *KmerTable) Len() int { return t.live }

// Slots reports the size of the slot index space: every slot number
// Find, At and Each deal in is in [0, Slots()).
func (t *KmerTable) Slots() int { return len(t.keys) }

// Add adds n to km's count, inserting km with count n if it is absent,
// and reports whether it inserted — the only operation that can move
// keys to other slots.
func (t *KmerTable) Add(km Kmer, n uint32) bool {
	if !isKey(km) {
		panic("seq: KmerTable key uses the reserved bit pattern")
	}
	mask := len(t.keys) - 1
	for i := int(km.Hash() >> t.shift); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case km:
			t.vals[i] += n
			return false
		case emptySlot:
			if 4*(t.used+1) > 3*len(t.keys) {
				t.rehash(t.live + 1) // doubles, unless tombstones filled it
				return t.Add(km, n)
			}
			t.keys[i], t.vals[i] = km, n
			t.live++
			t.used++
			return true
		}
	}
}

// Find returns km's slot, or -1 if km is absent.
func (t *KmerTable) Find(km Kmer) int {
	mask := len(t.keys) - 1
	for i := int(km.Hash() >> t.shift); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case km:
			return i
		case emptySlot:
			return -1
		}
	}
}

// At returns the key and count held in a slot; ok is false for a slot
// that is empty or whose key was deleted.
func (t *KmerTable) At(slot int) (km Kmer, n uint32, ok bool) {
	km = t.keys[slot]
	return km, t.vals[slot], isKey(km)
}

// Delete removes km and reports whether it was present.
func (t *KmerTable) Delete(km Kmer) bool {
	i := t.Find(km)
	if i < 0 {
		return false
	}
	t.DeleteAt(i)
	return true
}

// DeleteAt removes the key held in slot, which must hold one. The slot
// becomes a tombstone that the next growth reclaims.
func (t *KmerTable) DeleteAt(slot int) {
	t.keys[slot] = deadSlot
	t.live--
}

// Each calls fn for every key present, in slot order. fn may delete
// keys but must not add any.
func (t *KmerTable) Each(fn func(slot int, km Kmer, n uint32)) {
	for i, km := range t.keys {
		if isKey(km) {
			fn(i, km, t.vals[i])
		}
	}
}
