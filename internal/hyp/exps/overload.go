package exps

import (
	"context"
	"time"

	"flexile/internal/chaos"
	"flexile/internal/hyp"
	"flexile/internal/obs"
	"flexile/internal/serve"
)

// OverloadShed is h-overload-shed: the DESIGN.md §13 overload contract,
// which the internal/chaos test storms check, restated as a hypothesis. A
// deliberately slow server (every recompute sleeps, cache disabled) is
// stormed by seeded clients with tight deadlines; the claim is that from
// the client's side every single response is accounted for —
// either a 200 bit-identical to the library oracle, or an
// explicit shed (429/503 with X-Flexile-Shed and a usable Retry-After) —
// with zero contract violations. The storm schedule is a pure function of
// the seed, so the request count and the zero-violation outcome are
// canonical; how many land on each side of the admit/shed split depends
// on real time and stays volatile. The fixture, the storm and the
// classification (load.Contract) are the chaos harness's own.
func OverloadShed() hyp.Hypothesis {
	h := hyp.Hypothesis{
		Name:  "h-overload-shed",
		Claim: "under deadline-storm overload every response is an oracle-exact 200 or an explicit shed; none unaccounted",
	}
	h.Run = func(ctx context.Context, p hyp.Params) (*hyp.Verdict, error) {
		scratch, cleanup, err := p.ScratchDir()
		if err != nil {
			return nil, err
		}
		if cleanup != nil {
			defer cleanup()
		}
		fix, err := chaos.New(scratch, serve.Config{
			CacheSize: 0,
			Workers:   -1,
			Obs:       obs.New(),
			ComputeHook: func(int) error {
				time.Sleep(30 * time.Millisecond)
				return nil
			},
		}, 1)
		if err != nil {
			return nil, err
		}
		defer fix.Close()

		const clients, requests = 8, 12
		rep := fix.Storm(chaos.StormConfig{
			Seed:     p.Seed,
			Clients:  clients,
			Requests: requests,
			Deadline: 120 * time.Millisecond,
			Jitter:   2 * time.Millisecond,
		})
		total := clients * requests
		accounted := rep.OK + rep.Sheds() + rep.Disconnect
		p.Logf("h-overload-shed: %s", rep)
		for _, viol := range rep.Violations {
			p.Logf("h-overload-shed: violation: %v", viol)
		}

		v := hyp.NewVerdict(h, p)
		v.Workloadf("topology", "Triangle (3 links, p=0.01 each, all scenarios)")
		v.Workloadf("server", "cache disabled, detached recompute, 30ms compute hook")
		v.Workloadf("storm", "%d clients x %d requests, 120ms deadline, 2ms jitter", clients, requests)
		v.Check("contract-violations", "==", float64(rep.Violated), 0)
		v.Check("responses-accounted", "==", float64(accounted), float64(total))
		v.Check("requests-total", "==", float64(total), float64(total))
		// The split is timing-dependent; only "both sides exercised" is claimed.
		v.CheckVolatile("sheds-observed", ">=", float64(rep.Sheds()), 1)
		v.CheckVolatile("admitted-observed", ">=", float64(rep.OK), 1)
		v.Measure("ok", float64(rep.OK))
		v.Measure("shed", float64(rep.Sheds()))
		v.Measure("disconnect", float64(rep.Disconnect))
		return v.Finalize(), nil
	}
	return h
}
