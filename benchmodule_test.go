// Tier-1 reach for the benchmark harness. bench/ is its own module (the
// benchmark contract wants its own build file, and there is no go.work),
// so root `go test ./...` would not notice a refactor here that breaks
// what the harness calls — "What the harness depends on" in
// bench/README.md. This test vets the harness and runs its short tests
// against the tree as it stands.
package enviromic_test

import (
	"os/exec"
	"testing"

	// The harness's service half. Linked in so that a change to either
	// rebuilds this test instead of reusing its cached result; the other
	// packages the harness imports are already dependencies of this one.
	_ "enviromic/internal/archive"
	_ "enviromic/internal/federation"
)

func TestBenchModuleBuildsAndPasses(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH")
	}
	for _, args := range [][]string{
		{"-C", "bench", "vet", "."},
		{"-C", "bench", "test", "-short", "./..."},
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
}
