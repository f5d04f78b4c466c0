package experiments

import (
	"fmt"
	"strings"

	"flexile/internal/emu"
	"flexile/internal/eval"
	"flexile/internal/scheme"
	"flexile/internal/scheme/flexile"
	"flexile/internal/scheme/scenbest"
	"flexile/internal/scheme/swan"
	"flexile/internal/scheme/teavar"
)

// Fig9Result holds the emulation-testbed comparison (paper Fig. 9, IBM):
// PercLoss per scheme measured on emulated (packet-level) losses rather
// than model-predicted ones, plus the model-vs-emulation agreement data.
type Fig9Result struct {
	Topology string
	Runs     int
	// EmuPercLoss maps scheme → per-class PercLoss per run (median across
	// runs is the paper's bar; min/max are its error bars).
	EmuPercLoss map[string][][]float64
	// ModelPercLoss maps scheme → per-class PercLoss from the model.
	ModelPercLoss map[string][]float64
	// DiffCDF is the CDF of (emulated − model) loss across all flows,
	// scenarios and schemes (Fig. 9c).
	DiffCDF []eval.CDFPoint
	// PCC is the Pearson correlation between model and emulated losses.
	PCC float64
	// MaxAbsDiff is the largest |emulated − model| observed.
	MaxAbsDiff float64
}

// fig9scheme pairs a scheme with the instance flavor it runs on.
type fig9scheme struct {
	s        scheme.Scheme
	twoClass bool
}

// Fig9 emulates each scheme's routing on the packet engine for every
// scenario, Runs times with different seeds (the paper emulates each
// scheme 5 times). The two-class comparison covers Flexile vs SWAN-Maxmin;
// the single-class one Flexile vs SMORE vs Teavar.
func Fig9(cfg Config, runs int) (*Fig9Result, error) {
	cfg = cfg.withDefaults()
	if runs == 0 {
		runs = 5
	}
	name := "IBM"
	single, err := cfg.SingleClass(name)
	if err != nil {
		return nil, err
	}
	two, err := cfg.TwoClass(name)
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{
		Topology:      name,
		Runs:          runs,
		EmuPercLoss:   map[string][][]float64{},
		ModelPercLoss: map[string][]float64{},
	}
	var allModel, allEmu []float64
	schemes := []fig9scheme{
		{&flexile.Scheme{}, true},
		{&swan.Maxmin{}, true},
		{&flexile.Scheme{}, false},
		{&scenbest.Scheme{DisplayName: "SMORE"}, false},
		{&teavar.Scheme{}, false},
	}
	for _, fs := range schemes {
		inst := single
		label := fs.s.Name()
		if fs.twoClass {
			inst = two
			label += "/2class"
		}
		r, err := fs.s.Route(inst)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		model := r.LossMatrix(inst)
		res.ModelPercLoss[label] = eval.PercLossAll(inst, model)
		for run := 0; run < runs; run++ {
			emuLoss, err := emu.LossMatrix(inst, r, emu.Packet, emu.Options{Seed: cfg.Seed + int64(run)})
			if err != nil {
				return nil, err
			}
			res.EmuPercLoss[label] = append(res.EmuPercLoss[label], eval.PercLossAll(inst, emuLoss))
			if run == 0 {
				for f := range model {
					k, i := inst.FlowOf(f)
					if inst.Demand[k][i] <= 0 {
						continue
					}
					for q := range model[f] {
						allModel = append(allModel, model[f][q])
						allEmu = append(allEmu, emuLoss[f][q])
					}
				}
			}
		}
	}
	diffs := make([]float64, len(allModel))
	for i := range allModel {
		diffs[i] = allEmu[i] - allModel[i]
		if a := abs(diffs[i]); a > res.MaxAbsDiff {
			res.MaxAbsDiff = a
		}
	}
	res.DiffCDF = eval.CDF(diffs, nil)
	res.PCC = Pearson(allModel, allEmu)
	return res, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Render formats the emulation comparison.
func (r *Fig9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9: emulation testbed comparison (%s, %d runs)\n", r.Topology, r.Runs)
	b.WriteString("  (a) two traffic classes:\n")
	for _, name := range []string{"Flexile/2class", "SWAN-Maxmin/2class"} {
		renderFig9Row(&b, r, name)
	}
	b.WriteString("  (b) single traffic class:\n")
	for _, name := range []string{"Flexile", "SMORE", "Teavar"} {
		renderFig9Row(&b, r, name)
	}
	fmt.Fprintf(&b, "  (c) model vs emulation: PCC = %.4f, max |diff| = %.2f%%\n", r.PCC, 100*r.MaxAbsDiff)
	return b.String()
}

func renderFig9Row(b *strings.Builder, r *Fig9Result, name string) {
	runs, ok := r.EmuPercLoss[name]
	if !ok {
		return
	}
	nk := len(runs[0])
	for k := 0; k < nk; k++ {
		med, lo, hi := medMinMax(runs, k)
		fmt.Fprintf(b, "    %-20s class %d: emu median %5.1f%% (min %5.1f%%, max %5.1f%%), model %5.1f%%\n",
			name, k, 100*med, 100*lo, 100*hi, 100*r.ModelPercLoss[name][k])
	}
}

func medMinMax(runs [][]float64, k int) (med, lo, hi float64) {
	var vals []float64
	for _, r := range runs {
		vals = append(vals, r[k])
	}
	s := sortedCopy(vals)
	return s[len(s)/2], s[0], s[len(s)-1]
}
