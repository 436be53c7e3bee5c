package vet

// The meta-test: the repo itself must be ir-vet clean. Every suppression in
// the tree is a reviewed //ir: annotation, so a regression anywhere —
// including in the analyzers — fails this test, which is what CI runs.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestRepoIsVetClean(t *testing.T) {
	root := repoRoot(t)
	pkgs, err := Load(LoadConfig{Dir: root, Patterns: []string{"./..."}, Tests: true})
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	diags, err := Run(pkgs, Suite())
	if err != nil {
		t.Fatalf("run suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if t.Failed() {
		t.Log("fix the finding or add a reviewed //ir: annotation (see docs/STATIC_ANALYSIS.md)")
	}
}

// TestDetScopeFilesExist: detpure checks nothing, silently, for a scoped
// package or file that is not there, so a deleted or renamed one must leave
// DetScope with it.
func TestDetScopeFilesExist(t *testing.T) {
	root := repoRoot(t)
	for pkg, files := range DetScope {
		dir := filepath.Join(root, strings.TrimPrefix(pkg, "repro/"))
		if _, err := os.Stat(dir); err != nil {
			t.Errorf("DetScope names package %s: %v", pkg, err)
		}
		for _, f := range files {
			if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
				t.Errorf("DetScope names %s in %s: %v", f, pkg, err)
			}
		}
	}
}

// TestVettoolProtocol builds cmd/ir-vet and drives it through the go
// command's -vettool interface — the unitchecker-style cfg protocol — over
// a couple of real packages.
func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs go vet")
	}
	root := repoRoot(t)
	bin := filepath.Join(t.TempDir(), "ir-vet")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ir-vet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build ir-vet: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "./internal/record/...", "./internal/sched/...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool: %v\n%s", err, out)
	}
}
