package seq

import (
	"math/rand"
	"testing"
)

// checkAgainstModel compares every observable of the table with the
// map it models: size, each key's count, and Each visiting exactly the
// model's entries in increasing slot order at the slot Find reports.
func checkAgainstModel(t *testing.T, tab *KmerTable, model map[Kmer]uint32) {
	t.Helper()
	if tab.Len() != len(model) {
		t.Fatalf("Len %d, model has %d", tab.Len(), len(model))
	}
	for km, want := range model {
		slot := tab.Find(km)
		if slot < 0 || slot >= tab.Slots() {
			t.Fatalf("Find(%v) = %d with %d slots", km, slot, tab.Slots())
		}
		if got, n, ok := tab.At(slot); !ok || got != km || n != want {
			t.Fatalf("At(%d) = %v, %d, %v; want %v, %d", slot, got, n, ok, km, want)
		}
	}
	seen, last := 0, -1
	tab.Each(func(slot int, km Kmer, n uint32) {
		if slot <= last || tab.Find(km) != slot || model[km] != n {
			t.Fatalf("Each visited slot %d after %d with %v=%d; model has %d", slot, last, km, n, model[km])
		}
		seen, last = seen+1, slot
	})
	if seen != len(model) {
		t.Fatalf("Each visited %d keys, model has %d", seen, len(model))
	}
}

// Seeded random add / delete / re-add sequences, long enough to grow
// the table several times and to fill it with tombstones, over key
// sets drawn freely and drawn from one Hash()%8 partition — what an
// MPI rank's table holds.
func TestKmerTableMatchesMapModel(t *testing.T) {
	for _, partitioned := range []bool{false, true} {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(71 + seed))
			var pool []Kmer
			for len(pool) < 600 {
				km := Kmer{Hi: rng.Uint64() >> 2, Lo: rng.Uint64()}
				if !partitioned || km.Hash()%8 == uint64(seed) {
					pool = append(pool, km)
				}
			}
			tab, model := NewKmerTable(int(seed)*50), map[Kmer]uint32{}
			slots := map[Kmer]int{}
			for op := 0; op < 4000; op++ {
				km := pool[rng.Intn(len(pool))]
				probe := pool[rng.Intn(len(pool))]
				if _, has := model[probe]; tab.Find(probe) >= 0 != has {
					t.Fatalf("Find(%v) = %d, model has it: %v", probe, tab.Find(probe), has)
				}
				if rng.Intn(3) == 0 {
					_, had := model[km]
					delete(model, km)
					delete(slots, km)
					if tab.Delete(km) != had {
						t.Fatalf("Delete(%v) = %v, model had it: %v", km, !had, had)
					}
				} else {
					n := uint32(1 + rng.Intn(9))
					_, had := model[km]
					model[km] += n
					if tab.Add(km, n) == had {
						t.Fatalf("Add(%v) reported inserted=%v, model had it: %v", km, !had, had)
					}
					if !had {
						clear(slots) // an insertion may move every key
					}
				}
				// Between insertions no key changes slot.
				for km, slot := range slots {
					if tab.Find(km) != slot {
						t.Fatalf("op %d: %v moved from slot %d to %d without an insertion", op, km, slot, tab.Find(km))
					}
				}
				if op%97 == 0 || op == 3999 {
					checkAgainstModel(t, tab, model)
					for km := range model {
						slots[km] = tab.Find(km)
					}
				}
			}
		}
	}
}

// A partition's keys agree in Hash()%size; the table must spread them
// over all its slots all the same.
func TestKmerTableSpreadsOnePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	tab := NewKmerTable(0)
	for tab.Len() < 20000 {
		if km := (Kmer{Hi: rng.Uint64() >> 2, Lo: rng.Uint64()}); km.Hash()%8 == 5 {
			tab.Add(km, 1)
		}
	}
	displaced := 0
	tab.Each(func(slot int, km Kmer, _ uint32) {
		displaced += (slot - int(km.Hash()>>tab.shift)) & (tab.Slots() - 1)
	})
	// Linear probing at load α ≤ 3/4 displaces a key by (1/(1-α)-1)/2 ≤ 1.5
	// slots on average; low-bit indexing would give thousands.
	if mean := float64(displaced) / float64(tab.Len()); mean > 1.5 {
		t.Errorf("mean displacement %.1f slots at load %.2f", mean, float64(tab.Len())/float64(tab.Slots()))
	}
}

func TestKmerTableRejectsReservedKey(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add of the empty-slot sentinel did not panic")
		}
	}()
	NewKmerTable(0).Add(emptySlot, 1)
}
