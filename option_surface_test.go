package flexile_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"flexile"
	"flexile/internal/lp"
	"flexile/internal/mip"
	"flexile/internal/scheme/cvarflow"
	"flexile/internal/scheme/ffc"
	"flexile/internal/scheme/ip"
	"flexile/internal/scheme/scenbest"
	"flexile/internal/scheme/swan"
	"flexile/internal/scheme/teavar"
	"flexile/internal/serve"
	"flexile/internal/te"
)

// TestOptionSurfacePinned pins the exported fields of every options struct
// and baseline scheme: each one is a value a caller can set, so a change
// that adds a knob edits this table and says why. The total is logged so a
// change can quote it before and after (go test -v -run OptionSurface).
func TestOptionSurfacePinned(t *testing.T) {
	pinned := []struct {
		typ    any
		fields string
	}{
		{lp.Options{}, "MaxIters RefactorEvery StartBasis Bland"},
		{mip.Options{}, "MaxNodes RelGap Heuristic WarmBinary"},
		{te.MaxMinOptions{}, "Domain MinFrac FixRoutes Demands FixedUse"},
		{flexile.DesignOptions{}, "MaxIterations Gamma Workers Timeout"},
		{flexile.AugmentOptions{}, "Target Cost MaxAug MaxIterations"},
		{serve.Config{}, "CacheSize Workers Obs Log LogEvery DefaultDeadline TenantRate TenantBurst ComputeHook Ring TraceEvery"},
		{ip.Scheme{}, "MaxNodes Status Objective"},
		{ffc.Scheme{}, "F Granted"},
		{cvarflow.St{}, ""},
		{cvarflow.Ad{}, ""},
		{teavar.Scheme{}, ""},
		{swan.Throughput{}, ""},
		{swan.Maxmin{}, ""},
		{scenbest.Scheme{}, "DisplayName"},
	}
	total := 0
	for _, p := range pinned {
		rt := reflect.TypeOf(p.typ)
		var got []string
		for i := range rt.NumField() {
			if f := rt.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		total += len(got)
		if want := strings.Fields(p.fields); !slices.Equal(got, want) {
			t.Errorf("%s: exported fields %q, pinned %q", rt, strings.Join(got, " "), p.fields)
		}
	}
	t.Logf("option surface: %d exported fields", total)
}
