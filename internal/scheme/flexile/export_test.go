package flexile

import (
	"flexile/internal/obs"
	"flexile/internal/te"
)

// offlineBesideMIP is Offline with the MIP master (oracle_test.go) solved
// beside the descent at every step; follow makes the run take the MIP's
// points instead of the descent's. It returns the result, the oracle's
// record, and Offline's error. It is the one place that sets
// Options.wrapMaster.
func offlineBesideMIP(inst *te.Instance, opt Options, follow bool) (*OfflineResult, *oracleMaster, error) {
	var o *oracleMaster
	opt.wrapMaster = func(m *offlineMaster) master {
		o = &oracleMaster{
			offlineMaster: m,
			follow:        follow,
			shareCuts:     m.d.opt.Gamma < 0 && inst.ScenDemand == nil,
			metrics:       obs.NewChild(nil),
		}
		return o
	}
	res, err := Offline(inst, opt)
	return res, o, err
}

// CheckMIPOracle is checkMIPOracle, for the benchmark's design instances,
// which an internal test cannot build: internal/experiments imports this
// package.
var CheckMIPOracle = checkMIPOracle
