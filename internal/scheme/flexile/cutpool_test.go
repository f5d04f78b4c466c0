package flexile

import "testing"

func TestCutPoolDedup(t *testing.T) {
	mk := func(q int, c float64, y ...float64) *cut {
		return &cut{nativeQ: q, C: c, yAlpha: y, yCap: []float64{-1}, capCoef: []float64{-1}}
	}
	a, b, c := mk(1, 1, 0.5), mk(2, 2, 0.5), mk(1, 3, 0.5)
	cp := newCutPool()
	cp.add(a)
	cp.add(b)
	cp.add(mk(1, 1, 0.5)) // exact duplicate of a
	// Fake a hash collision: c's key points at a, whose content differs, so
	// c must be kept.
	cp.index[cutKey(c)] = 0
	cp.add(c)
	want := []*cut{a, b, c}
	if len(cp.cuts) != len(want) {
		t.Fatalf("pool has %d cuts, want %d", len(cp.cuts), len(want))
	}
	for i, ct := range cp.cuts {
		if ct != want[i] {
			t.Fatalf("cut %d = %+v, want %+v (insertion order)", i, ct, want[i])
		}
	}
	if cp.generated != 4 || cp.deduped != 1 {
		t.Fatalf("generated/deduped = %d/%d, want 4/1", cp.generated, cp.deduped)
	}
	// The raw capacity dual identifies a cut; its scaled copy does not.
	d := mk(1, 1, 0.5)
	d.capCoef = []float64{-2}
	if !cutEqual(a, d) || cutKey(a) != cutKey(d) {
		t.Fatal("cuts differing only in capCoef must be duplicates")
	}
	d.yCap = []float64{-2}
	if cutEqual(a, d) {
		t.Fatal("cuts with different capacity duals must differ")
	}
}
