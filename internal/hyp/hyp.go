// Package hyp is the hypothesis harness (DESIGN.md §15): every count and
// correctness claim the repository makes — "a cache miss is 18 LP solves",
// "every overload response is an explicit shed", "emulated delivered bandwidth
// tracks the model within the Fig. 9 tolerance" — is a named, seeded
// experiment that declares its workload, runs it reproducibly, and evaluates
// a machine-checkable verdict.
//
// Every check is a pure function of the seed and the code — counts, bit
// identity, fidelity gaps, contract accounting — so the canonical verdict
// (see Verdict.Canonical) of a passing hypothesis is bit-identical across
// runs, machines, and worker counts. Wall-clock claims are not checked
// here; the bench/ harness times them with paired runs. cmd/flexile-hyp
// re-runs the experiments and diffs the canonical verdicts against the
// files checked in under hypotheses/; CI fails on drift
// (`make hypotheses`).
package hyp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Params configure one harness run; every hypothesis receives the same
// Params, so a run is reproducible from its seed alone.
type Params struct {
	// Seed drives every stochastic choice an experiment makes (workload
	// generation, scenario streams, storm clients). The canonical verdict
	// is a pure function of Seed.
	Seed uint64
	// Workers is client-side parallelism (e.g. concurrent soak queriers).
	// It must never change a canonical verdict — only wall-clock. 0 means
	// a small default.
	Workers int
	// Scratch is a directory for build products and artifacts; empty
	// means os.MkdirTemp per experiment.
	Scratch string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

func (p Params) withDefaults() Params {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Workers == 0 {
		p.Workers = 4
	}
	if p.Log == nil {
		p.Log = io.Discard
	}
	return p
}

// Logf writes one progress line to the run log.
func (p Params) Logf(format string, args ...any) {
	fmt.Fprintf(p.Log, format+"\n", args...)
}

// ScratchDir returns a usable scratch directory, creating a temporary one
// when Params.Scratch is empty. The caller owns cleanup only for the
// temporary case, signalled by cleanup != nil.
func (p Params) ScratchDir() (dir string, cleanup func(), err error) {
	if p.Scratch != "" {
		return p.Scratch, nil, nil
	}
	dir, err = os.MkdirTemp("", "flexile-hyp-*")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// Hypothesis is one named, seeded, re-runnable experiment.
type Hypothesis struct {
	// Name is the experiment id and its directory under hypotheses/
	// (h-miss-latency, h-serve-soak, ...).
	Name string
	// Claim is the one-sentence statement under test.
	Claim string
	// Run executes the experiment and returns its verdict. An error means
	// the experiment could not run (build failure, port in use) — distinct
	// from a FAIL verdict, which means it ran and the claim is false.
	Run func(ctx context.Context, p Params) (*Verdict, error)
}

// Check is one machine-checkable comparison inside a verdict.
type Check struct {
	Name string  `json:"name"`
	Op   string  `json:"op"` // ">=", "<=", "=="
	Want float64 `json:"want"`
	Got  float64 `json:"got"`
	Pass bool    `json:"pass"`
}

// Verdict is a hypothesis run's machine-checkable outcome.
type Verdict struct {
	Hypothesis string `json:"hypothesis"`
	Claim      string `json:"claim"`
	Seed       uint64 `json:"seed"`
	// Workload describes the experiment's inputs deterministically
	// (topology, scenario count, stream length, tolerance, ...). JSON maps
	// render with sorted keys, so the encoding is stable.
	Workload map[string]string `json:"workload,omitempty"`
	Checks   []Check           `json:"checks"`
	Pass     bool              `json:"pass"`
}

// NewVerdict starts a verdict for h under p.
func NewVerdict(h Hypothesis, p Params) *Verdict {
	return &Verdict{
		Hypothesis: h.Name,
		Claim:      h.Claim,
		Seed:       p.Seed,
		Workload:   map[string]string{},
	}
}

// Workloadf records one deterministic workload attribute.
func (v *Verdict) Workloadf(key, format string, args ...any) {
	v.Workload[key] = fmt.Sprintf(format, args...)
}

// compare evaluates got <op> want.
func compare(op string, got, want float64) (bool, error) {
	switch op {
	case ">=":
		return got >= want, nil
	case "<=":
		return got <= want, nil
	case "==":
		return got == want, nil
	default:
		return false, fmt.Errorf("hyp: unknown check op %q", op)
	}
}

// Check records the comparison got <op> want. Got must be a pure function
// of the seed: it enters the canonical verdict.
func (v *Verdict) Check(name, op string, got, want float64) bool {
	ok, err := compare(op, got, want)
	if err != nil {
		panic(err) // ops are compile-time literals in experiment code
	}
	v.Checks = append(v.Checks, Check{Name: name, Op: op, Want: want, Got: got, Pass: ok})
	return ok
}

// Finalize computes the overall PASS/FAIL: every check must pass.
func (v *Verdict) Finalize() *Verdict {
	v.Pass = len(v.Checks) > 0
	for _, c := range v.Checks {
		if !c.Pass {
			v.Pass = false
		}
	}
	return v
}

// Canonical renders the verdict as indented JSON with a trailing newline.
// Two runs of a hypothesis at the same seed must produce bit-identical
// payloads; this is what hypotheses/<name>/verdict.json pins and CI diffs.
func (v *Verdict) Canonical() []byte {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("hyp: canonical marshal: %v", err)) // struct of plain values
	}
	return append(out, '\n')
}

// VerdictFile is the checked-in canonical verdict path for a hypothesis.
func VerdictFile(dir, name string) string {
	return filepath.Join(dir, name, "verdict.json")
}

// WriteDir writes the canonical verdict to dir/<hypothesis>/verdict.json.
func (v *Verdict) WriteDir(dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, v.Hypothesis), 0o755); err != nil {
		return err
	}
	return os.WriteFile(VerdictFile(dir, v.Hypothesis), v.Canonical(), 0o644)
}

// ErrDrift is wrapped by Verify when a recomputed canonical verdict
// differs from the checked-in file.
var ErrDrift = fmt.Errorf("hyp: verdict drift")

// Verify compares the verdict's canonical payload against the checked-in
// file under dir. A missing file, or any byte difference, is drift: the
// claim's evidence no longer matches what the repository asserts, so CI
// must fail until the file is regenerated (flexile-hyp -update) and the
// diff reviewed.
func (v *Verdict) Verify(dir string) error {
	path := VerdictFile(dir, v.Hypothesis)
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%w: %s: no checked-in verdict (%v); run flexile-hyp -update", ErrDrift, v.Hypothesis, err)
	}
	got := v.Canonical()
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%w: %s: recomputed verdict differs from %s\n--- checked in ---\n%s--- recomputed ---\n%s",
			ErrDrift, v.Hypothesis, path, want, got)
	}
	return nil
}

// --- registry ---

// Registry is an ordered set of hypotheses.
type Registry struct {
	hyps []Hypothesis
}

// NewRegistry builds a registry, rejecting duplicate names.
func NewRegistry(hyps ...Hypothesis) (*Registry, error) {
	seen := map[string]bool{}
	for _, h := range hyps {
		if h.Name == "" || h.Run == nil {
			return nil, fmt.Errorf("hyp: hypothesis with empty name or nil Run")
		}
		if seen[h.Name] {
			return nil, fmt.Errorf("hyp: duplicate hypothesis %q", h.Name)
		}
		seen[h.Name] = true
	}
	r := &Registry{hyps: append([]Hypothesis(nil), hyps...)}
	sort.SliceStable(r.hyps, func(i, j int) bool { return r.hyps[i].Name < r.hyps[j].Name })
	return r, nil
}

// All returns the hypotheses in name order.
func (r *Registry) All() []Hypothesis { return append([]Hypothesis(nil), r.hyps...) }

// Get returns the named hypothesis.
func (r *Registry) Get(name string) (Hypothesis, bool) {
	for _, h := range r.hyps {
		if h.Name == name {
			return h, true
		}
	}
	return Hypothesis{}, false
}

// Result pairs a hypothesis with its run outcome.
type Result struct {
	Hypothesis Hypothesis
	Verdict    *Verdict // nil when Err != nil
	Err        error
	Elapsed    time.Duration
}

// Run executes one hypothesis under p (after applying defaults).
func Run(ctx context.Context, h Hypothesis, p Params) Result {
	p = p.withDefaults()
	start := time.Now()
	v, err := h.Run(ctx, p)
	return Result{Hypothesis: h, Verdict: v, Err: err, Elapsed: time.Since(start)}
}
