package quamax_test

import (
	"os"
	"os/exec"
	"testing"
)

// The serving benchmark in bench/ is a module of its own, so the root
// module's build and tests never compile it: a change to anything it calls
// would surface only when the benchmark runs. This vets it against this tree
// as bench/run.sh builds it, with no toolchain or module download.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("vets the bench module, a few seconds")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	cmd := exec.Command(gobin, "vet", ".")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in bench/: %v\n%s", err, out)
	}
}
