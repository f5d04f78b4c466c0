package exps

import (
	"context"
	"time"

	"flexile"
	"flexile/internal/experiments"
	"flexile/internal/hyp"
)

// WarmSpeedup is h-warm-speedup: what is left of the PR 6 claim for the
// opt-in warm-started batched offline solve (DesignOptions.WarmStart) on the
// IBM gate workload (gravity demands ×1.5, the regime where scenario-LP
// pivot work dominates). It was ">=2x faster wall-clock" while a pivot cost
// O(m²); since the simplex walks only the nonzeros of its ~8 %-dense inverse
// (PR 19) the cold default's pivots are cheap, the warm path's per-install
// refactorizations are not, and the two run level (0.7-1.1× here). What
// still holds, and is what ROADMAP item 2 decides on: warm starting needs
// less than a third of the pivots — a count, deterministic for the seed —
// and is not slower. Min-of-3 on both sides filters scheduler noise; the
// wall-clock ratio is volatile, so only its floor and outcome are canonical.
//
// Since the cold path prices from carried reduced costs (PR 21) "not slower"
// is no longer met on this box: cold ~100 ms, warm ~150 ms, 0.61-0.81×, and
// the volatile check fails about every second run. The floor and the claim
// are left as they were; restating them or deleting WarmStart is ROADMAP
// item 2's decision.
func WarmSpeedup() hyp.Hypothesis {
	h := hyp.Hypothesis{
		Name:  "h-warm-speedup",
		Claim: "the warm-started batched offline solve needs <=1/3 of the cold default's simplex pivots on the IBM gate workload and is not slower",
	}
	h.Run = func(ctx context.Context, p hyp.Params) (*hyp.Verdict, error) {
		cfg := experiments.Config{Scale: experiments.Tiny, Seed: int64(p.Seed)}
		inst, err := cfg.SingleClass("IBM")
		if err != nil {
			return nil, err
		}
		inst.ScaleDemands(1.5)

		const runs = 3
		minRun := func(o flexile.DesignOptions) (best time.Duration, pivots int64, err error) {
			best = time.Duration(1<<63 - 1)
			for r := 0; r < runs; r++ {
				if err := ctx.Err(); err != nil {
					return 0, 0, err
				}
				start := time.Now()
				res, err := flexile.Design(inst, o)
				if err != nil {
					return 0, 0, err
				}
				if e := time.Since(start); e < best {
					best = e
				}
				pivots = res.Report.Metrics.LP.Pivots
			}
			return best, pivots, nil
		}
		cold, coldPivots, err := minRun(flexile.DesignOptions{Workers: 1})
		if err != nil {
			return nil, err
		}
		warm, warmPivots, err := minRun(flexile.DesignOptions{Workers: 1, WarmStart: true})
		if err != nil {
			return nil, err
		}
		speedup := cold.Seconds() / warm.Seconds()
		p.Logf("h-warm-speedup: cold %v / %d pivots, warm %v / %d pivots: %.2fx", cold, coldPivots, warm, warmPivots, speedup)

		v := hyp.NewVerdict(h, p)
		v.Workloadf("topology", "IBM")
		v.Workloadf("scale", "tiny")
		v.Workloadf("demand-scale", "1.5")
		v.Workloadf("runs", "min-of-%d per side, workers=1", runs)
		v.Workloadf("scenarios", "%d", len(inst.Scenarios))
		v.Check("warm-pivot-reduction-x", ">=", float64(coldPivots)/float64(warmPivots), 3)
		// "Not slower", with room for the tens of percent scheduler noise
		// costs a CI runner.
		v.CheckVolatile("warm-speedup-x", ">=", speedup, 0.7)
		v.Measure("cold-s", cold.Seconds())
		v.Measure("warm-s", warm.Seconds())
		v.Measure("warm-speedup-x", speedup)
		return v.Finalize(), nil
	}
	return h
}
