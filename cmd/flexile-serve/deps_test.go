package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestNoTemplatePackages fails when the daemon links text/template or
// html/template. Their reflective method lookup (reflect.Value.MethodByName)
// makes the linker keep every exported method of every reachable type,
// which turns off its dead-code elimination of methods: the binary grows by
// about a third and takes that much longer to link. The /debug/requests page
// is written by hand for this reason.
func TestNoTemplatePackages(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command(goTool, "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "text/template" || pkg == "html/template" {
			t.Errorf("flexile-serve links %s: its reflective method lookup turns off the linker's dead-code elimination of methods", pkg)
		}
	}
}
