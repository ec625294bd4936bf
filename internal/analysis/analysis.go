// Package analysis is a dependency-free static-analysis framework plus the
// istlint analyzer suite that mechanically enforces this repository's
// numeric, LP and determinism invariants.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the suite can migrate to the upstream framework
// wholesale if the x/tools dependency ever becomes available; it is
// reimplemented here on top of go/ast + go/types only, because the build
// environment is fully offline and the module must stay stdlib-only.
//
// The expression-level analyzers and the invariant each one guards:
//
//   - floatcmp: float comparisons go through the shared geom tolerance
//     helpers, never raw ==/!= (and never raw ordering of utility
//     dot-products). A single exact float64 equality silently breaks the
//     paper's Ω(log₂(n/k)) question-count guarantees.
//   - lpstatus: lp.Result.X / .Value are only meaningful after Result.Status
//     has been checked; using them on an unchecked path reads garbage from
//     an infeasible or unbounded solve.
//   - detrand: library packages never use global math/rand state or
//     wall-clock seeds — transcript-replay recovery (PR 1) is sound only if
//     every random choice is reproducible from an injected, seeded
//     *rand.Rand.
//   - epsconst: tolerance literals (1e-9 and friends) live in internal/geom
//     only, so "on the hyperplane" means the same thing in every package.
//   - errdrop: errors returned by this module's own APIs (Session stores,
//     dataset IO, transcripts) are never silently discarded by a bare call
//     statement.
//   - wallclock: library packages read time only through an injected
//     clock.Clock (internal/clock), never time.Now/Since/Until directly —
//     otherwise anytime deadlines (PR 3) become untestable and replayed
//     sessions can degrade differently than the recorded run did.
//   - obsnil: library code emits trace events only through the nil-safe
//     wrappers of internal/obs, never by calling Observer.Event directly —
//     the observer is nil on the uninstrumented fast path (PR 4), and the
//     wrappers are where the observation-is-passive guarantee lives.
//
// A diagnostic can be suppressed with a justifying directive on the same
// line or the line immediately above:
//
//	//lint:ignore floatcmp exact tie-break keeps the comparator a strict weak order
//
// The reason is mandatory; a bare directive does not suppress anything.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one static check, in the shape of x/tools' analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package, reporting findings via
	// pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test source files.
	Files []*ast.File
	// PkgPath is the package import path (e.g. "ist/internal/lp").
	PkgPath string
	Pkg     *types.Package
	Info    *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// All returns the full istlint analyzer suite in reporting order: the
// eight expression-level analyzers above, then the five flow-sensitive
// analyzers built on the CFG/dataflow layer (cfg.go, dataflow.go):
//
//   - locksafe: every Lock reaches an Unlock on all paths, no double
//     locks, and no blocking call (fsync, stream write, LP solve, channel
//     op, HTTP handler) runs while a mutex is held.
//   - goroleak: goroutines launched in library/server packages have a
//     reachable cancellation path (ctx.Done()/done-channel receive,
//     select, or channel range).
//   - errflow: path-sensitive err checking — a result returned alongside
//     an error is not used on any path before the error is consulted.
//   - nilguard: path-sensitive nil analysis for the nil-safe wrapper
//     pattern — a pointer/interface nil-checked on one path is not
//     dereferenced unguarded on another.
//   - spanend: span-lifecycle balance — every obs span started with
//     Tracer.Start/Span.StartChild reaches End/EndAt (or a defer of one)
//     on every path to a return; escaping spans are exempt.
func All() []*Analyzer {
	return []*Analyzer{
		FloatCmpAnalyzer,
		LPStatusAnalyzer,
		DetRandAnalyzer,
		EpsConstAnalyzer,
		ErrDropAnalyzer,
		WallClockAnalyzer,
		ObsNilAnalyzer,
		LockSafeAnalyzer,
		GoroLeakAnalyzer,
		ErrFlowAnalyzer,
		NilGuardAnalyzer,
		SpanEndAnalyzer,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
