package hyp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParamsScratchAndLog covers the Params plumbing experiments lean on:
// an explicit scratch dir is returned as-is with no cleanup (the caller
// owns it), an empty one allocates a temp dir whose cleanup removes it,
// and Logf writes one line to the run log.
func TestParamsScratchAndLog(t *testing.T) {
	own := t.TempDir()
	dir, cleanup, err := Params{Scratch: own}.ScratchDir()
	if err != nil || dir != own || cleanup != nil {
		t.Fatalf("explicit scratch: dir %q cleanup-nil %v err %v, want %q true nil", dir, cleanup == nil, err, own)
	}

	dir, cleanup, err = Params{}.ScratchDir()
	if err != nil {
		t.Fatalf("temp scratch: %v", err)
	}
	if cleanup == nil {
		t.Fatal("temp scratch returned no cleanup")
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("temp scratch %q not created: %v", dir, err)
	}
	cleanup()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("cleanup left %q behind (stat err %v)", dir, err)
	}

	var log strings.Builder
	p := Params{Log: &log}.withDefaults()
	p.Logf("solved %d scenarios", 12)
	if log.String() != "solved 12 scenarios\n" {
		t.Fatalf("Logf wrote %q", log.String())
	}
}

// TestWriteDirAndRecord covers persistence: WriteDir lays down the
// canonical verdict as the hypothesis directory's one file, and a plain file
// where that directory should be is an error, not a panic.
func TestWriteDirAndRecord(t *testing.T) {
	h := Hypothesis{Name: "h-files", Claim: "files are written", Run: nil}
	v := NewVerdict(h, Params{Seed: 3}.withDefaults())
	v.Check("count", "==", 2, 2)
	v.Finalize()

	dir := t.TempDir()
	if err := v.WriteDir(dir); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	verdict, err := os.ReadFile(VerdictFile(dir, "h-files"))
	if err != nil {
		t.Fatalf("verdict file: %v", err)
	}
	if string(verdict) != string(v.Canonical()) {
		t.Error("verdict file is not the canonical payload")
	}
	entries, err := os.ReadDir(filepath.Join(dir, "h-files"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "verdict.json" {
		t.Errorf("WriteDir wrote %v, want only verdict.json", entries)
	}

	blocked := filepath.Join(t.TempDir(), "flat")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := v.WriteDir(filepath.Join(blocked, "sub")); err == nil {
		t.Error("WriteDir under a plain file succeeded")
	}
}
