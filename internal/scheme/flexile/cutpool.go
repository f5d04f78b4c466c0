package flexile

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
)

// cutPool owns the pooled Benders cuts of one decomposition run and dedups
// them by content: re-solving a scenario whose optimum did not move
// regenerates the exact same cut, and a duplicate row in the master is pure
// ballast. Keyed by content hash, verified by full equality. With adds
// performed in ascending scenario order the pool is bit-for-bit identical
// for every worker count.
type cutPool struct {
	cuts  []*cut         // in insertion order
	index map[uint64]int // content hash → index in cuts

	generated, deduped int64
}

func newCutPool() *cutPool { return &cutPool{index: make(map[uint64]int)} }

// add pools ct unless an identical cut is already present.
func (cp *cutPool) add(ct *cut) {
	cp.generated++
	k := cutKey(ct)
	if i, ok := cp.index[k]; ok && cutEqual(cp.cuts[i], ct) {
		cp.deduped++
		return
	}
	cp.index[k] = len(cp.cuts)
	cp.cuts = append(cp.cuts, ct)
}

// cutKey hashes (FNV-1a) what identifies a cut: its native scenario,
// constant and raw duals. capCoef is left out: at a fixed scenario it is a
// function of yCap for Offline, and for Augment it would tell apart one
// (z, δ) cut generated at two values of δ.
func cutKey(ct *cut) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(uint64(ct.nativeQ))
	word(math.Float64bits(ct.C))
	for _, y := range ct.yAlpha {
		word(math.Float64bits(y))
	}
	for _, y := range ct.yCap {
		word(math.Float64bits(y))
	}
	return h.Sum64()
}

// cutEqual confirms a hash hit before a cut is dropped as a duplicate.
func cutEqual(a, b *cut) bool {
	return a.nativeQ == b.nativeQ && a.C == b.C &&
		slices.Equal(a.yAlpha, b.yAlpha) && slices.Equal(a.yCap, b.yCap)
}
