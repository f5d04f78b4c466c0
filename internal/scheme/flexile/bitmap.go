package flexile

import "fmt"

// CriticalSet is the compact flow×scenario bitmap of critical-scenario
// decisions (z_fq). §4.3 notes this is the only extra state the controller
// stores beyond existing TE schemes: one bit per (flow, scenario) — about
// 1.25 MB for a 100-node network with 1000 scenarios and two classes.
type CriticalSet struct {
	flows, scens int
	bits         []uint64
}

// NewCriticalSet allocates an all-zero bitmap.
func NewCriticalSet(flows, scens int) *CriticalSet {
	n := flows * scens
	return &CriticalSet{flows: flows, scens: scens, bits: make([]uint64, (n+63)/64)}
}

func (c *CriticalSet) idx(f, q int) (int, uint64) {
	b := f*c.scens + q
	return b >> 6, 1 << uint(b&63)
}

// Set marks scenario q critical (or not) for flow f.
func (c *CriticalSet) Set(f, q int, v bool) {
	w, m := c.idx(f, q)
	if v {
		c.bits[w] |= m
	} else {
		c.bits[w] &^= m
	}
}

// Get reports whether scenario q is critical for flow f.
func (c *CriticalSet) Get(f, q int) bool {
	w, m := c.idx(f, q)
	return c.bits[w]&m != 0
}

// Flows returns the flow-dimension size.
func (c *CriticalSet) Flows() int { return c.flows }

// Scenarios returns the scenario-dimension size.
func (c *CriticalSet) Scenarios() int { return c.scens }

// ByteSize reports the storage footprint in bytes.
func (c *CriticalSet) ByteSize() int { return len(c.bits) * 8 }

// Clone deep-copies the bitmap.
func (c *CriticalSet) Clone() *CriticalSet {
	out := &CriticalSet{flows: c.flows, scens: c.scens, bits: append([]uint64(nil), c.bits...)}
	return out
}

// Equal reports whether two bitmaps agree everywhere.
func (c *CriticalSet) Equal(o *CriticalSet) bool {
	if c.flows != o.flows || c.scens != o.scens {
		return false
	}
	for i := range c.bits {
		if c.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// ScenarioColumn is a snapshot of a single scenario's column of a
// CriticalSet: one bit per flow. The offline solve cache keeps one of
// these per scenario instead of cloning the full nf×nq bitmap — O(nf)
// memory and copy time per snapshot rather than O(nf·nq).
type ScenarioColumn struct {
	flows int
	bits  []uint64
}

// CloneScenario snapshots column q (z_fq for every flow f).
func (c *CriticalSet) CloneScenario(q int) *ScenarioColumn {
	sc := &ScenarioColumn{flows: c.flows, bits: make([]uint64, (c.flows+63)/64)}
	for f := 0; f < c.flows; f++ {
		if c.Get(f, q) {
			sc.bits[f>>6] |= 1 << uint(f&63)
		}
	}
	return sc
}

// Get reports the snapshotted bit of flow f.
func (sc *ScenarioColumn) Get(f int) bool {
	return sc.bits[f>>6]&(1<<uint(f&63)) != 0
}

// Flows returns the flow-dimension size.
func (sc *ScenarioColumn) Flows() int { return sc.flows }

// ByteSize reports the storage footprint in bytes.
func (sc *ScenarioColumn) ByteSize() int { return len(sc.bits) * 8 }

// EqualColumn reports whether the snapshot still matches column q of o —
// the pruning rule "skip scenarios whose critical flows did not change"
// (§4.2) against a live bitmap.
func (sc *ScenarioColumn) EqualColumn(o *CriticalSet, q int) bool {
	if sc.flows != o.flows {
		return false
	}
	for f := 0; f < sc.flows; f++ {
		if sc.Get(f) != o.Get(f, q) {
			return false
		}
	}
	return true
}

// Words exposes the bitmap's backing 64-bit words for serialization (the
// offline artifact consumed by internal/serve). The slice aliases the
// bitmap's storage: callers must treat it as read-only.
func (c *CriticalSet) Words() []uint64 { return c.bits }

// NewCriticalSetFromWords reconstructs a bitmap from its serialized words.
// The word count must match the dimensions exactly; stray bits beyond
// flows×scens in the last word are cleared so reconstructed bitmaps compare
// equal to organically built ones.
func NewCriticalSetFromWords(flows, scens int, words []uint64) (*CriticalSet, error) {
	if flows < 0 || scens < 0 {
		return nil, fmt.Errorf("flexile: negative critical-set dimensions %d×%d", flows, scens)
	}
	n := flows * scens
	if flows != 0 && n/flows != scens {
		return nil, fmt.Errorf("flexile: critical-set dimensions %d×%d overflow", flows, scens)
	}
	need := (n + 63) / 64
	if len(words) != need {
		return nil, fmt.Errorf("flexile: critical set %d×%d needs %d words, got %d", flows, scens, need, len(words))
	}
	c := &CriticalSet{flows: flows, scens: scens, bits: append([]uint64(nil), words...)}
	if rem := n & 63; rem != 0 && need > 0 {
		c.bits[need-1] &= (1 << uint(rem)) - 1
	}
	return c, nil
}
