package analysis_test

import (
	"testing"

	"ist/internal/analysis"
)

// TestRepoIsClean runs the full analyzer suite over the whole module —
// exactly what `go run ./cmd/istlint ./...` does — and fails on any finding.
// This keeps the repo lint-clean even where CI runs only `go test`.
func TestRepoIsClean(t *testing.T) {
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := analysis.Check(pkgs, analysis.All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestSuiteComposition pins the suite: TestRepoIsClean only means "the repo
// satisfies every registered analyzer", so an analyzer silently dropped from
// All() would weaken the gate without failing anything. The five
// flow-sensitive analyzers ride the same CFG/dataflow layer; losing one
// loses a whole invariant class.
func TestSuiteComposition(t *testing.T) {
	want := []string{
		"floatcmp", "lpstatus", "detrand", "epsconst", "errdrop",
		"wallclock", "obsnil",
		"locksafe", "goroleak", "errflow", "nilguard", "spanend",
	}
	all := analysis.All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(all), len(want))
	}
	for i, name := range want {
		if all[i].Name != name {
			t.Errorf("All()[%d] = %q, want %q", i, all[i].Name, name)
		}
		if all[i].Doc == "" {
			t.Errorf("analyzer %q has no Doc", all[i].Name)
		}
	}
}

// TestSuppressionsAreJustified audits every //lint:ignore in the module: a
// bare directive (no reason) suppresses nothing — it is either dead or a
// missing justification, and both are mistakes.
func TestSuppressionsAreJustified(t *testing.T) {
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, s := range analysis.Suppressions(pkgs) {
		if s.Reason == "" {
			t.Errorf("%s:%d: //lint:ignore without a reason (not honored)", s.File, s.Line)
		}
	}
}

// TestSweepCoversNetworkPackages pins the network-protocol packages into
// the repo-wide sweep: ist/client and ist/internal/netchaos promise fully
// injected time and randomness (their retry schedules and fault plans must
// replay deterministically), which is only enforced while the wallclock and
// detrand analyzers actually see them. A build-tag or module-layout change
// that silently dropped them from `./...` would void the promise.
func TestSweepCoversNetworkPackages(t *testing.T) {
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	covered := map[string]bool{}
	for _, p := range pkgs {
		covered[p.PkgPath] = true
	}
	for _, want := range []string{"ist/client", "ist/internal/netchaos", "ist/internal/server"} {
		if !covered[want] {
			t.Errorf("package %s is not in the analyzer sweep", want)
		}
	}
}

func TestByName(t *testing.T) {
	for _, a := range analysis.All() {
		if got := analysis.ByName(a.Name); got != a {
			t.Errorf("ByName(%q) = %v, want %v", a.Name, got, a)
		}
	}
	if analysis.ByName("nosuch") != nil {
		t.Errorf("ByName(nosuch) should be nil")
	}
}
