package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRealMainFlagValidation pins the CLI's rejection paths: bad regexp,
// and a -run pattern that selects nothing.
func TestRealMainFlagValidation(t *testing.T) {
	if err := realMain(false, "([", false, 1, 4, t.TempDir()); err == nil ||
		!strings.Contains(err.Error(), "-run") {
		t.Fatalf("bad regexp: err = %v, want -run parse error", err)
	}
	if err := realMain(false, "^no-such-hypothesis$", false, 1, 4, t.TempDir()); err == nil ||
		!strings.Contains(err.Error(), "no hypothesis matches") {
		t.Fatalf("empty selection: err = %v, want no-match error", err)
	}
}

// TestRealMainList lists without running anything — it must succeed even
// with no verdict directory at all.
func TestRealMainList(t *testing.T) {
	if err := realMain(true, "", false, 1, 4, filepath.Join(t.TempDir(), "absent")); err != nil {
		t.Fatalf("list: %v", err)
	}
}

// TestRealMainUpdateVerifyDrift walks the CLI through its whole
// lifecycle on one fast hypothesis: -update writes the canonical verdict
// and nothing else, a verify run matches it and writes nothing, and a tampered
// verdict file turns the same verify run into a drift failure.
func TestRealMainUpdateVerifyDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment three times")
	}
	dir := t.TempDir()
	const sel = "^h-emu-fidelity$"

	if err := realMain(false, sel, true, 1, 4, dir); err != nil {
		t.Fatalf("-update: %v", err)
	}
	verdict := filepath.Join(dir, "h-emu-fidelity", "verdict.json")
	onlyVerdict := func(when string) {
		t.Helper()
		entries, err := os.ReadDir(filepath.Dir(verdict))
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if len(entries) != 1 || entries[0].Name() != "verdict.json" {
			t.Fatalf("%s: hypothesis directory holds %v, want only verdict.json", when, entries)
		}
	}
	onlyVerdict("-update")

	if err := realMain(false, sel, false, 1, 4, dir); err != nil {
		t.Fatalf("verify after update: %v", err)
	}
	onlyVerdict("verify")

	if err := os.WriteFile(verdict, []byte("{\"tampered\":true}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := realMain(false, sel, false, 1, 4, dir)
	if err == nil || !strings.Contains(err.Error(), "1 of 1 hypotheses failed") {
		t.Fatalf("tampered verdict: err = %v, want drift failure", err)
	}
}
