// Package traffic generates the evaluation traffic matrices: a gravity
// model scaled so the optimally-routed maximum link utilization (MLU) hits
// a target in [0.5, 0.7], exactly the §6 methodology. For two-class
// experiments the per-pair traffic is split randomly into high and low
// priority and the low-priority share is scaled up (×2 by default, since
// the network can run closer to saturation with scavenger-class traffic).
package traffic

import (
	"fmt"
	"math"
	"math/rand"

	"flexile/internal/te"
)

// GravityOptions configures ApplyGravity.
type GravityOptions struct {
	// Seed drives node masses and the class split. Required for
	// reproducibility; zero is a valid seed.
	Seed int64
	// TargetMLU is the optimal-routing MLU the scaled matrix should reach;
	// 0 means 0.6 (the middle of the paper's [0.5, 0.7] band).
	TargetMLU float64
	// LowScale multiplies the low-priority share in two-class instances;
	// 0 means 2.0 (§6).
	LowScale float64
}

func (o GravityOptions) withDefaults() GravityOptions {
	if o.TargetMLU == 0 {
		o.TargetMLU = 0.6
	}
	if o.LowScale == 0 {
		o.LowScale = 2
	}
	return o
}

// ApplyGravity fills the instance's demands. Single-class instances receive
// the scaled gravity matrix directly; two-class instances (class 0 = high
// priority, class 1 = low priority) receive a random split with the low
// share scaled by LowScale. Instances with three or more classes split the
// matrix evenly across classes.
func ApplyGravity(inst *te.Instance, opt GravityOptions) error {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	g := inst.Topo.G
	n := g.NumNodes()
	// Node masses: exponentiated normals give the heavy-tailed site sizes
	// real WAN matrices show.
	mass := make([]float64, n)
	for i := range mass {
		mass[i] = math.Exp(rng.NormFloat64() * 0.5)
	}
	tm := make([]float64, len(inst.Pairs))
	tot := 0.0
	for p, pr := range inst.Pairs {
		tm[p] = mass[pr[0]] * mass[pr[1]]
		tot += tm[p]
	}
	if tot == 0 {
		return fmt.Errorf("traffic: degenerate gravity matrix")
	}
	// Provisionally route the whole matrix as class 0 to find the optimal
	// concurrent-flow scale z*; optimal MLU of the matrix is 1/z*, so
	// multiplying demands by TargetMLU·z* lands the MLU on target.
	saved := inst.Demand[0]
	inst.Demand[0] = tm
	z, _, _, err := te.MaxConcurrentScale(inst, te.NoFailure(), []int{0})
	inst.Demand[0] = saved
	if err != nil {
		return err
	}
	if math.IsInf(z, 1) || z <= 0 {
		return fmt.Errorf("traffic: cannot scale matrix (z = %v)", z)
	}
	scale := opt.TargetMLU * z
	for p := range tm {
		tm[p] *= scale
	}
	switch len(inst.Classes) {
	case 1:
		copy(inst.Demand[0], tm)
	case 2:
		for p := range tm {
			u := rng.Float64()
			inst.Demand[0][p] = u * tm[p]
			inst.Demand[1][p] = (1 - u) * tm[p] * opt.LowScale
		}
	default:
		share := 1 / float64(len(inst.Classes))
		for k := range inst.Classes {
			for p := range tm {
				inst.Demand[k][p] = tm[p] * share
			}
		}
	}
	return nil
}

// MLU returns the optimal-routing maximum link utilization of the
// instance's current demands (all classes together) with no failures:
// 1/z* where z* is the maximum concurrent-flow scale. An MLU above 1 means
// the demands cannot all be met.
func MLU(inst *te.Instance) (float64, error) {
	z, _, _, err := te.MaxConcurrentScale(inst, te.NoFailure(), nil)
	if err != nil {
		return 0, err
	}
	if z <= 0 {
		return math.Inf(1), nil
	}
	return 1 / z, nil
}
