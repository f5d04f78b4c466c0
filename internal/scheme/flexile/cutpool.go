package flexile

import "math"

// cutPool owns the pooled Benders cuts of one decomposition run and dedups
// them by content: re-solving a scenario whose optimum did not move
// regenerates the exact same cut, and a duplicate row in the master is pure
// ballast. Keyed by content hash, verified by full equality. With adds
// performed in ascending scenario order the pool is bit-for-bit identical
// for every worker count.
type cutPool[T any] struct {
	key func(T) uint64
	eq  func(a, b T) bool

	cuts  []T            // in insertion order
	index map[uint64]int // content hash → index in cuts

	generated, deduped int64
}

func newCutPool[T any](key func(T) uint64, eq func(a, b T) bool) *cutPool[T] {
	return &cutPool[T]{key: key, eq: eq, index: make(map[uint64]int)}
}

// add pools ct unless an identical cut is already present.
func (cp *cutPool[T]) add(ct T) {
	cp.generated++
	k := cp.key(ct)
	if i, ok := cp.index[k]; ok && cp.eq(cp.cuts[i], ct) {
		cp.deduped++
		return
	}
	cp.index[k] = len(cp.cuts)
	cp.cuts = append(cp.cuts, ct)
}

// hash64 streams float64/int words into an FNV-1a hash; the helper behind
// the per-cut-type key functions.
type hash64 struct{ h uint64 }

func newHash64() *hash64 { return &hash64{h: 14695981039346656037} }

func (s *hash64) word(v uint64) {
	for i := 0; i < 8; i++ {
		s.h ^= uint64(byte(v >> (8 * i)))
		s.h *= 1099511628211
	}
}

func (s *hash64) float(f float64) { s.word(math.Float64bits(f)) }

// cutKey hashes an offline cut's full content (native scenario, constant,
// duals); cutEqual confirms a hash hit before a cut is dropped as a
// duplicate.
func cutKey(ct *cut) uint64 {
	s := newHash64()
	s.word(uint64(ct.nativeQ))
	s.float(ct.C)
	for _, y := range ct.yAlpha {
		s.float(y)
	}
	for _, c := range ct.capCoef {
		s.float(c)
	}
	return s.h
}

func cutEqual(a, b *cut) bool {
	if a.nativeQ != b.nativeQ || a.C != b.C ||
		len(a.yAlpha) != len(b.yAlpha) || len(a.capCoef) != len(b.capCoef) {
		return false
	}
	for i := range a.yAlpha {
		if a.yAlpha[i] != b.yAlpha[i] {
			return false
		}
	}
	for i := range a.capCoef {
		if a.capCoef[i] != b.capCoef[i] {
			return false
		}
	}
	return true
}

// augCutKey / augCutEqual are the augmentation-space twins of cutKey /
// cutEqual, over the (z, δ) cut content.
func augCutKey(ct augCut) uint64 {
	s := newHash64()
	s.word(uint64(ct.q))
	s.float(ct.C)
	for _, y := range ct.yAlpha {
		s.float(y)
	}
	for _, y := range ct.yCapRaw {
		s.float(y)
	}
	return s.h
}

func augCutEqual(a, b augCut) bool {
	if a.q != b.q || a.C != b.C ||
		len(a.yAlpha) != len(b.yAlpha) || len(a.yCapRaw) != len(b.yCapRaw) {
		return false
	}
	for i := range a.yAlpha {
		if a.yAlpha[i] != b.yAlpha[i] {
			return false
		}
	}
	for i := range a.yCapRaw {
		if a.yCapRaw[i] != b.yCapRaw[i] {
			return false
		}
	}
	return true
}
