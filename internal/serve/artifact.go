// Package serve is the online allocation serving layer: it turns the
// offline decomposition's output into a deployable artifact and answers
// failure-state allocation queries from it the way the paper's control
// loop would (§4.3-4.4) — load once, look up the scenario, reuse the
// cached allocation, recompute only on the first query under a new state.
//
// The package has two halves:
//
//   - Artifact: a versioned, checksummed, self-contained binary encoding
//     of everything the online phase needs — topology, classes, tunnels,
//     demands, failure scenarios, the critical-set bitmap, the subproblem
//     loss matrix and, for a γ design, the ScenLossOpt vector. Decode
//     accepts arbitrary bytes and returns an error for anything malformed;
//     it never panics and never yields an artifact whose indices are out
//     of range (fuzz-tested, see FuzzDecodeArtifact).
//
//   - Server: a long-running HTTP daemon (cmd/flexile-serve) answering
//     allocation queries from a per-scenario cache with single-flight
//     recomputation, hot-reloading the artifact on SIGHUP with an atomic
//     swap, and reporting cache/reload/latency counters through
//     internal/obs.
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"flexile/internal/failure"
	"flexile/internal/graph"
	flexscheme "flexile/internal/scheme/flexile"
	"flexile/internal/te"
	"flexile/internal/topo"
)

// Format constants. The header is:
//
//	magic "FLXA" (4 bytes) | version u32 | payload length u64 |
//	sha256(payload) (32 bytes) | payload
//
// All integers are little-endian. The checksum covers exactly the payload
// bytes, so truncation, extension and corruption are all detected before
// any payload parsing happens.
const (
	artifactMagic = "FLXA"
	// ArtifactVersion is the current encoding version. Decoders reject
	// other versions; bump it on any payload layout change.
	ArtifactVersion = 1
	headerSize      = 4 + 4 + 8 + sha256.Size

	// maxPayload caps how large a payload a decoder will even consider
	// (256 MiB holds a ~1000-node network with tens of thousands of
	// scenarios; anything larger is corrupt or hostile).
	maxPayload = 1 << 28
)

// Structural bounds enforced by Decode. They exist so hostile inputs
// cannot request absurd allocations before the per-element remaining-bytes
// checks kick in.
const (
	maxNodes          = 1 << 20
	maxEdges          = 1 << 22
	maxClasses        = 1 << 8
	maxPairs          = 1 << 22
	maxScenarios      = 1 << 22
	maxTunnelsPerPair = 1 << 12
)

// ErrArtifact is wrapped by every decode failure, so callers can classify
// "bad artifact bytes" with errors.Is regardless of the specific cause.
var ErrArtifact = errors.New("serve: invalid artifact")

// Class is the serialized form of a traffic class (the tunnel-selection
// policy is not serialized: tunnels themselves are).
type Class struct {
	Name   string
	Beta   float64
	Weight float64
}

// Artifact is the self-contained offline result an allocation server
// loads: the full TE instance (minus tunnel policies, which are already
// materialized as paths) plus the offline phase's output and the γ bound
// the online phase must honor. Build produces one from a solved instance;
// Decode parses one from bytes, validating every index and every float.
type Artifact struct {
	// TopoName is the topology's display name.
	TopoName string
	// NumNodes is the node count; edges reference nodes [0, NumNodes).
	NumNodes int
	// Edges are the undirected capacitated links.
	Edges []graph.Edge
	// Classes are the traffic classes (name, β target, penalty weight).
	Classes []Class
	// Pairs are the flow endpoints (u < v).
	Pairs [][2]int
	// Tunnels[k][i] are the materialized tunnel paths of pair i in class k.
	Tunnels [][][]graph.Path
	// Demand[k][i] is the base traffic matrix.
	Demand [][]float64
	// Scenarios are the enumerated disjoint failure states.
	Scenarios []failure.Scenario
	// ScenDemand, when non-nil, is the per-scenario traffic override
	// (§4.4); entries may be nil (use the base matrix).
	ScenDemand [][]float64
	// CriticalWords is the flow×scenario critical-set bitmap, serialized
	// as its backing words (dimensions are NumFlows()×len(Scenarios)).
	CriticalWords []uint64
	// ScenLossOpt[q] is the optimal ScenLoss of scenario q, which only the
	// γ floors read; empty when the design ran with γ off and computed none.
	ScenLossOpt []float64
	// SubLosses[f][q] are the offline subproblem losses — the per-scenario
	// bandwidth promise for critical flows (nil when unavailable).
	SubLosses [][]float64
	// Gamma is the §4.4 γ bound the online phase enforces: γ > 0 bounds;
	// 0 or negative disables.
	Gamma float64
}

// NumFlows reports |K|·|P|.
func (a *Artifact) NumFlows() int { return len(a.Classes) * len(a.Pairs) }

// Build captures a solved instance as an artifact. The offline result must
// carry a critical set with matching dimensions; ScenLossOpt and SubLosses
// are optional (a design with γ off computes no ScenLossOpt, and a degraded
// solve may lack either — the online phase then promises no floors from
// the missing one, exactly as the library call would). Gamma is taken
// from opt with the same normalization Options applies: the zero value
// means "disabled" (-1).
func Build(inst *te.Instance, off *flexscheme.OfflineResult, opt flexscheme.Options) (*Artifact, error) {
	if inst == nil || inst.Topo == nil || inst.Topo.G == nil {
		return nil, fmt.Errorf("serve: Build needs a complete instance")
	}
	if off == nil || off.Critical == nil {
		return nil, fmt.Errorf("serve: Build needs an offline result with a critical set")
	}
	nf, nq := inst.NumFlows(), len(inst.Scenarios)
	if off.Critical.Flows() != nf || off.Critical.Scenarios() != nq {
		return nil, fmt.Errorf("serve: critical set is %d×%d, instance is %d×%d",
			off.Critical.Flows(), off.Critical.Scenarios(), nf, nq)
	}
	if len(off.ScenLossOpt) != 0 && len(off.ScenLossOpt) != nq {
		return nil, fmt.Errorf("serve: ScenLossOpt has %d entries for %d scenarios", len(off.ScenLossOpt), nq)
	}
	if off.SubLosses != nil && len(off.SubLosses) != nf {
		return nil, fmt.Errorf("serve: SubLosses has %d rows for %d flows", len(off.SubLosses), nf)
	}
	g := inst.Topo.G
	a := &Artifact{
		TopoName: inst.Topo.Name,
		NumNodes: g.NumNodes(),
		Gamma:    opt.Gamma,
	}
	if a.Gamma == 0 {
		a.Gamma = -1 // Options{} means "γ disabled", mirror Options.withDefaults
	}
	for e := 0; e < g.NumEdges(); e++ {
		a.Edges = append(a.Edges, g.Edge(e))
	}
	for _, c := range inst.Classes {
		a.Classes = append(a.Classes, Class{Name: c.Name, Beta: c.Beta, Weight: c.Weight})
	}
	a.Pairs = append(a.Pairs, inst.Pairs...)
	a.Tunnels = inst.Tunnels
	a.Demand = inst.Demand
	a.Scenarios = inst.Scenarios
	a.ScenDemand = inst.ScenDemand
	a.CriticalWords = append([]uint64(nil), off.Critical.Words()...)
	a.ScenLossOpt = off.ScenLossOpt
	a.SubLosses = off.SubLosses
	return a, nil
}

// Instantiate reconstructs the TE instance, the offline result and the
// online options from a decoded artifact. The returned pieces feed
// flexscheme.Online unchanged, and — because every float round-trips
// through its exact bit pattern — produce allocations bit-identical to
// calling Online on the original instance.
func (a *Artifact) Instantiate() (*te.Instance, *flexscheme.OfflineResult, flexscheme.Options, error) {
	opt := flexscheme.Options{Gamma: a.Gamma}
	g := graph.New(a.NumNodes)
	for _, e := range a.Edges {
		if e.A == e.B || e.A < 0 || e.B < 0 || e.A >= a.NumNodes || e.B >= a.NumNodes {
			return nil, nil, opt, fmt.Errorf("%w: edge (%d,%d) invalid for %d nodes", ErrArtifact, e.A, e.B, a.NumNodes)
		}
		g.AddEdge(e.A, e.B, e.Capacity)
	}
	inst := &te.Instance{
		Topo:       &topo.Topology{Name: a.TopoName, G: g},
		Pairs:      a.Pairs,
		Tunnels:    a.Tunnels,
		Demand:     a.Demand,
		Scenarios:  a.Scenarios,
		ScenDemand: a.ScenDemand,
	}
	for _, c := range a.Classes {
		inst.Classes = append(inst.Classes, te.Class{Name: c.Name, Beta: c.Beta, Weight: c.Weight})
	}
	crit, err := flexscheme.NewCriticalSetFromWords(a.NumFlows(), len(a.Scenarios), a.CriticalWords)
	if err != nil {
		return nil, nil, opt, fmt.Errorf("%w: %v", ErrArtifact, err)
	}
	off := &flexscheme.OfflineResult{
		Critical:    crit,
		ScenLossOpt: a.ScenLossOpt,
		SubLosses:   a.SubLosses,
	}
	return inst, off, opt, nil
}

// --- encoding ---

type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// payload renders the artifact body (everything after the header).
func (a *Artifact) payload() []byte {
	var e enc
	e.str(a.TopoName)
	e.u32(uint32(a.NumNodes))
	e.u32(uint32(len(a.Edges)))
	for _, ed := range a.Edges {
		e.u32(uint32(ed.A))
		e.u32(uint32(ed.B))
		e.f64(ed.Capacity)
	}
	e.u32(uint32(len(a.Classes)))
	for _, c := range a.Classes {
		e.str(c.Name)
		e.f64(c.Beta)
		e.f64(c.Weight)
	}
	e.u32(uint32(len(a.Pairs)))
	for _, p := range a.Pairs {
		e.u32(uint32(p[0]))
		e.u32(uint32(p[1]))
	}
	for k := range a.Classes {
		for i := range a.Pairs {
			ts := a.Tunnels[k][i]
			e.u32(uint32(len(ts)))
			for _, p := range ts {
				e.u32(uint32(len(p.Edges)))
				for _, v := range p.Nodes {
					e.u32(uint32(v))
				}
				for _, ed := range p.Edges {
					e.u32(uint32(ed))
				}
			}
		}
	}
	for k := range a.Classes {
		for i := range a.Pairs {
			e.f64(a.Demand[k][i])
		}
	}
	e.u32(uint32(len(a.Scenarios)))
	for _, s := range a.Scenarios {
		e.f64(s.Prob)
		e.u32(uint32(len(s.Failed)))
		for _, ed := range s.Failed {
			e.u32(uint32(ed))
		}
	}
	if a.ScenDemand == nil {
		e.u8(0)
	} else {
		e.u8(1)
		for q := range a.Scenarios {
			if a.ScenDemand[q] == nil {
				e.u8(0)
				continue
			}
			e.u8(1)
			for _, d := range a.ScenDemand[q] {
				e.f64(d)
			}
		}
	}
	e.u32(uint32(len(a.CriticalWords)))
	for _, w := range a.CriticalWords {
		e.u64(w)
	}
	if len(a.ScenLossOpt) == 0 {
		e.u8(0)
	} else {
		e.u8(1)
		for _, v := range a.ScenLossOpt {
			e.f64(v)
		}
	}
	if a.SubLosses == nil {
		e.u8(0)
	} else {
		e.u8(1)
		for _, row := range a.SubLosses {
			for _, v := range row {
				e.f64(v)
			}
		}
	}
	e.f64(a.Gamma)
	return e.b
}

// Encode renders the artifact in the versioned, checksummed wire format.
func (a *Artifact) Encode() []byte {
	payload := a.payload()
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, headerSize+len(payload))
	out = append(out, artifactMagic...)
	out = binary.LittleEndian.AppendUint32(out, ArtifactVersion)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, sum[:]...)
	out = append(out, payload...)
	return out
}

// Checksum returns the hex sha256 of the artifact's payload — the same
// value the header carries, suitable for logging and the /v1/info endpoint.
func (a *Artifact) Checksum() string {
	return fmt.Sprintf("%x", sha256.Sum256(a.payload()))
}

// --- decoding ---

// dec is a bounds-checked little-endian reader: the first failure latches
// in err and every subsequent read returns zero values, so decode logic
// reads straight-line and checks err once per structural block.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrArtifact, fmt.Sprintf(format, args...))
	}
}

func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 1 {
		d.fail("truncated at byte %d", d.off)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 4 {
		d.fail("truncated at byte %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("truncated at byte %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// fin reads a float that must be finite (not NaN, not ±Inf).
func (d *dec) fin(what string) float64 {
	v := d.f64()
	if d.err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		d.fail("%s is not finite", what)
	}
	return v
}

// unit reads a float that must lie in [0, 1].
func (d *dec) unit(what string) float64 {
	v := d.f64()
	if d.err == nil && !(v >= 0 && v <= 1) {
		d.fail("%s %v outside [0,1]", what, v)
	}
	return v
}

// count reads an element count and rejects it unless limit allows it AND
// the remaining payload could physically hold count×elemBytes — the guard
// that keeps hostile headers from provoking huge allocations.
func (d *dec) count(what string, limit, elemBytes int) int {
	v := d.u32()
	if d.err != nil {
		return 0
	}
	n := int(v)
	if n > limit {
		d.fail("%s count %d exceeds limit %d", what, n, limit)
		return 0
	}
	if elemBytes > 0 && n > d.remaining()/elemBytes {
		d.fail("%s count %d exceeds remaining payload", what, n)
		return 0
	}
	return n
}

func (d *dec) str(what string, limit int) string {
	n := d.count(what, limit, 1)
	if d.err != nil {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// node reads a node id valid for n nodes.
func (d *dec) node(n int) int {
	v := d.u32()
	if d.err == nil && int(v) >= n {
		d.fail("node id %d out of range [0,%d)", v, n)
	}
	return int(v)
}

// Decode parses and validates an artifact. Arbitrary input yields a
// wrapped ErrArtifact — never a panic, and never an artifact with an
// out-of-range index, a non-finite capacity/demand, or a probability or
// loss outside [0, 1].
func Decode(data []byte) (*Artifact, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrArtifact, len(data), headerSize)
	}
	if string(data[:4]) != artifactMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrArtifact, data[:4])
	}
	version := binary.LittleEndian.Uint32(data[4:])
	if version != ArtifactVersion {
		return nil, fmt.Errorf("%w: version %d, this build reads version %d", ErrArtifact, version, ArtifactVersion)
	}
	plen := binary.LittleEndian.Uint64(data[8:])
	if plen > maxPayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrArtifact, plen, maxPayload)
	}
	if uint64(len(data)-headerSize) != plen {
		return nil, fmt.Errorf("%w: payload is %d bytes, header says %d", ErrArtifact, len(data)-headerSize, plen)
	}
	payload := data[headerSize:]
	sum := sha256.Sum256(payload)
	var want [sha256.Size]byte
	copy(want[:], data[16:16+sha256.Size])
	if sum != want {
		return nil, fmt.Errorf("%w: checksum mismatch (corrupt payload)", ErrArtifact)
	}

	d := &dec{b: payload}
	a := &Artifact{}
	a.TopoName = d.str("topology name", 1<<12)
	a.NumNodes = d.count("node", maxNodes, 0)

	ne := d.count("edge", maxEdges, 16)
	a.Edges = make([]graph.Edge, 0, ne)
	for e := 0; e < ne && d.err == nil; e++ {
		ea, eb := d.node(a.NumNodes), d.node(a.NumNodes)
		cap := d.fin("edge capacity")
		if d.err == nil && ea == eb {
			d.fail("edge %d is a self loop", e)
		}
		if d.err == nil && cap < 0 {
			d.fail("edge %d capacity %v negative", e, cap)
		}
		a.Edges = append(a.Edges, graph.Edge{A: ea, B: eb, Capacity: cap})
	}

	nk := d.count("class", maxClasses, 20)
	a.Classes = make([]Class, 0, nk)
	for k := 0; k < nk && d.err == nil; k++ {
		name := d.str("class name", 1<<10)
		beta := d.unit("class beta")
		w := d.fin("class weight")
		if d.err == nil && w < 0 {
			d.fail("class %d weight %v negative", k, w)
		}
		a.Classes = append(a.Classes, Class{Name: name, Beta: beta, Weight: w})
	}

	np := d.count("pair", maxPairs, 8)
	a.Pairs = make([][2]int, 0, np)
	for i := 0; i < np && d.err == nil; i++ {
		u, v := d.node(a.NumNodes), d.node(a.NumNodes)
		if d.err == nil && u >= v {
			d.fail("pair %d (%d,%d) not ordered u<v", i, u, v)
		}
		a.Pairs = append(a.Pairs, [2]int{u, v})
	}

	a.Tunnels = make([][][]graph.Path, nk)
	for k := 0; k < nk && d.err == nil; k++ {
		a.Tunnels[k] = make([][]graph.Path, np)
		for i := 0; i < np && d.err == nil; i++ {
			nt := d.count("tunnel", maxTunnelsPerPair, 4)
			paths := make([]graph.Path, 0, nt)
			for t := 0; t < nt && d.err == nil; t++ {
				paths = append(paths, d.path(a))
			}
			a.Tunnels[k][i] = paths
		}
	}

	a.Demand = make([][]float64, nk)
	for k := 0; k < nk && d.err == nil; k++ {
		a.Demand[k] = make([]float64, np)
		for i := 0; i < np && d.err == nil; i++ {
			v := d.fin("demand")
			if d.err == nil && v < 0 {
				d.fail("demand[%d][%d] = %v negative", k, i, v)
			}
			a.Demand[k][i] = v
		}
	}

	nq := d.count("scenario", maxScenarios, 12)
	a.Scenarios = make([]failure.Scenario, 0, nq)
	for q := 0; q < nq && d.err == nil; q++ {
		prob := d.unit("scenario probability")
		nfail := d.count("failed edge", ne, 4)
		s := failure.Scenario{Prob: prob}
		prev := -1
		for j := 0; j < nfail && d.err == nil; j++ {
			e := d.u32()
			if d.err == nil && int(e) >= ne {
				d.fail("scenario %d failed edge %d out of range [0,%d)", q, e, ne)
			}
			if d.err == nil && int(e) <= prev {
				d.fail("scenario %d failed edges not strictly increasing", q)
			}
			prev = int(e)
			s.Failed = append(s.Failed, int(e))
		}
		a.Scenarios = append(a.Scenarios, s)
	}

	nf := nk * np
	if d.u8() == 1 && d.err == nil {
		a.ScenDemand = make([][]float64, nq)
		for q := 0; q < nq && d.err == nil; q++ {
			if d.u8() == 0 || d.err != nil {
				continue
			}
			if nf > d.remaining()/8 {
				d.fail("scenario %d demand vector exceeds remaining payload", q)
				break
			}
			row := make([]float64, nf)
			for f := 0; f < nf && d.err == nil; f++ {
				v := d.fin("scenario demand")
				if d.err == nil && v < 0 {
					d.fail("scenario %d demand[%d] = %v negative", q, f, v)
				}
				row[f] = v
			}
			a.ScenDemand[q] = row
		}
	}

	needWords := (nf*nq + 63) / 64
	nw := d.count("critical word", needWords, 8)
	if d.err == nil && nw != needWords {
		d.fail("critical set has %d words, %d flows × %d scenarios needs %d", nw, nf, nq, needWords)
	}
	a.CriticalWords = make([]uint64, 0, nw)
	for i := 0; i < nw && d.err == nil; i++ {
		a.CriticalWords = append(a.CriticalWords, d.u64())
	}

	if d.u8() == 1 && d.err == nil {
		if nq > d.remaining()/8 {
			d.fail("ScenLossOpt exceeds remaining payload")
		}
		a.ScenLossOpt = make([]float64, 0, nq)
		for q := 0; q < nq && d.err == nil; q++ {
			a.ScenLossOpt = append(a.ScenLossOpt, d.unit("ScenLossOpt"))
		}
	}

	if d.u8() == 1 && d.err == nil {
		if nf != 0 && nq > d.remaining()/8/nf {
			d.fail("SubLosses exceeds remaining payload")
		}
		a.SubLosses = make([][]float64, nf)
		for f := 0; f < nf && d.err == nil; f++ {
			row := make([]float64, nq)
			for q := 0; q < nq && d.err == nil; q++ {
				row[q] = d.unit("subproblem loss")
			}
			a.SubLosses[f] = row
		}
	}

	a.Gamma = d.fin("gamma")
	if d.err == nil && d.remaining() != 0 {
		d.fail("%d trailing bytes after payload", d.remaining())
	}
	if d.err != nil {
		return nil, d.err
	}
	return a, nil
}

// path reads one tunnel path and validates it is a well-formed walk:
// consecutive nodes joined by the edge between them.
func (d *dec) path(a *Artifact) graph.Path {
	ne := d.count("path edge", maxEdges, 4)
	if d.err != nil {
		return graph.Path{}
	}
	// A path has nEdges+1 nodes followed by nEdges edges: 4 bytes each.
	if d.remaining() < 8*ne+4 {
		d.fail("path of %d edges exceeds remaining payload", ne)
		return graph.Path{}
	}
	p := graph.Path{Nodes: make([]int, 0, ne+1), Edges: make([]int, 0, ne)}
	for i := 0; i <= ne && d.err == nil; i++ {
		p.Nodes = append(p.Nodes, d.node(a.NumNodes))
	}
	for i := 0; i < ne && d.err == nil; i++ {
		e := d.u32()
		if d.err != nil {
			break
		}
		if int(e) >= len(a.Edges) {
			d.fail("path edge %d out of range [0,%d)", e, len(a.Edges))
			break
		}
		ed := a.Edges[e]
		u, v := p.Nodes[i], p.Nodes[i+1]
		if !(ed.A == u && ed.B == v) && !(ed.A == v && ed.B == u) {
			d.fail("path edge %d (%d,%d) does not join nodes %d,%d", e, ed.A, ed.B, u, v)
			break
		}
		p.Edges = append(p.Edges, int(e))
	}
	return p
}
