package flexile

import "testing"

// poolCut is a minimal cut type for exercising the pool in isolation.
type poolCut struct {
	id  int
	val float64
}

func TestCutPoolDedup(t *testing.T) {
	cp := newCutPool(
		func(c poolCut) uint64 { return uint64(c.id) },
		func(a, b poolCut) bool { return a == b })
	cp.add(poolCut{1, 1})
	cp.add(poolCut{2, 2})
	cp.add(poolCut{1, 1}) // exact duplicate
	cp.add(poolCut{1, 3}) // hash collision (same id), different content: kept
	want := []poolCut{{1, 1}, {2, 2}, {1, 3}}
	if len(cp.cuts) != len(want) {
		t.Fatalf("pool has %d cuts, want %d", len(cp.cuts), len(want))
	}
	for i, c := range cp.cuts {
		if c != want[i] {
			t.Fatalf("cut %d = %v, want %v (insertion order)", i, c, want[i])
		}
	}
	if cp.generated != 4 || cp.deduped != 1 {
		t.Fatalf("generated/deduped = %d/%d, want 4/1", cp.generated, cp.deduped)
	}
}
