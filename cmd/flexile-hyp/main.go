// Command flexile-hyp runs the repository's named hypotheses — the
// seeded, re-runnable experiments behind every scale claim (DESIGN.md
// §15) — and diffs their canonical verdicts against the files checked in
// under hypotheses/.
//
// Usage:
//
//	flexile-hyp -list                 # what claims exist
//	flexile-hyp                       # run all, verify against hypotheses/
//	flexile-hyp -run 'soak|emu'       # subset by name regex
//	flexile-hyp -update               # rewrite the verdict files
//
// The default mode is the CI gate (`make hypotheses`): every selected
// hypothesis must pass its own checks AND canonicalize to exactly the
// checked-in verdict bytes; any drift — a changed threshold, a changed
// deterministic measurement, a new check — fails the run until the file
// is regenerated with -update and the diff is reviewed like any other
// code change. Every check is a pure function of the seed and the code;
// wall-clock claims are timed by the bench/ harness, not here.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"regexp"
	"syscall"
	"time"

	"flexile/internal/hyp"
	"flexile/internal/hyp/exps"
)

func main() {
	list := flag.Bool("list", false, "list hypotheses and exit")
	run := flag.String("run", "", "only hypotheses whose name matches this regexp")
	update := flag.Bool("update", false, "write canonical verdicts instead of verifying")
	seed := flag.Uint64("seed", 1, "experiment seed (drives workloads end to end)")
	workers := flag.Int("workers", 4, "client-side parallelism for serving experiments")
	dir := flag.String("dir", "hypotheses", "directory of checked-in verdict files")
	flag.Parse()

	if err := realMain(*list, *run, *update, *seed, *workers, *dir); err != nil {
		fmt.Fprintf(os.Stderr, "flexile-hyp: %v\n", err)
		os.Exit(1)
	}
}

func realMain(list bool, runPat string, update bool, seed uint64, workers int, dir string) error {
	reg, err := exps.All()
	if err != nil {
		return err
	}
	pat, err := regexp.Compile(runPat)
	if err != nil {
		return fmt.Errorf("-run: %w", err)
	}
	selected := make([]hyp.Hypothesis, 0)
	for _, h := range reg.All() {
		if pat.MatchString(h.Name) {
			selected = append(selected, h)
		}
	}
	if list {
		for _, h := range selected {
			fmt.Printf("%-22s %s\n", h.Name, h.Claim)
		}
		return nil
	}
	if len(selected) == 0 {
		return fmt.Errorf("no hypothesis matches -run %q", runPat)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	p := hyp.Params{Seed: seed, Workers: workers, Log: os.Stderr}
	failed := 0
	for _, h := range selected {
		res := hyp.Run(ctx, h, p)
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "FAIL  %-22s %v (%v)\n", h.Name, res.Err, res.Elapsed.Round(time.Millisecond))
			failed++
			continue
		}
		v := res.Verdict
		status := "PASS"
		if !v.Pass {
			status = "FAIL"
			failed++
			for _, c := range v.Checks {
				if !c.Pass {
					fmt.Fprintf(os.Stderr, "      %s: check %s: got %v, want %s %v\n", h.Name, c.Name, c.Got, c.Op, c.Want)
				}
			}
		}
		verified := ""
		if update {
			if err := v.WriteDir(dir); err != nil {
				return err
			}
			verified = "  (updated)"
		} else if v.Pass {
			switch err := v.Verify(dir); {
			case errors.Is(err, hyp.ErrDrift):
				status = "DRIFT"
				failed++
				fmt.Fprintf(os.Stderr, "      %s: %v\n      rerun with -update and review the diff\n", h.Name, err)
			case err != nil:
				return err
			default:
				verified = "  (verdict matches)"
			}
		}
		fmt.Printf("%s  %-22s %v%s\n", status, h.Name, res.Elapsed.Round(time.Millisecond), verified)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d hypotheses failed", failed, len(selected))
	}
	return nil
}
