// Package lint is a self-contained, stdlib-only static-analysis
// framework enforcing the repository's determinism and concurrency
// contracts at the source level (see DESIGN.md §Static analysis).
//
// The runtime tests catch contract violations probabilistically — a
// racy write inside a par.For body or an unordered map iteration
// feeding JSON output shows up only when a schedule happens to expose
// it. The analyzers here reject the violating *source patterns*
// deterministically at `make check` time instead:
//
//   - maprange:     `for range` over a map in a deterministic package
//   - wallclock:    time.Now/Since/Until or global math/rand in a
//     deterministic package
//   - parbody:      writes to captured state not owned by the loop
//     index inside par.For/par.Workers/par.Map/par.MapErr bodies
//   - guardedfield: struct fields annotated `// guarded by <mu>`
//     accessed without locking that mutex (plus `atomic` and `init`
//     guard modes)
//   - floateq:      ==/!= between floating-point values outside
//     approved helpers and exact-zero sentinels
//   - hotpath:      functions annotated //determinlint:hotpath must be
//     transitively allocation-free (no make/new/map writes/closures/
//     growing appends/interface boxing/fmt, and every callee either
//     annotated, verifiably clean, or allowlisted)
//   - codecpair:    a type with an Encode(*bits.Writer) method must
//     carry a decode counterpart and Bits() int; every exported
//     Encode* in a deterministic package must be reachable from a
//     Test/Fuzz/Benchmark function in the same package
//   - goleak:       go statements in concurrency-bearing packages must
//     show a join or cancel (WaitGroup Add/Done pairing, channel the
//     spawner receives from, body tied to a done channel, or a
//     `// joined by <what>` annotation)
//   - lockorder:    cycles in the mutex-acquisition graph, and
//     lock-held calls into exported functions that themselves lock
//
// Findings are suppressed with a directive on the offending line or
// the line above:
//
//	//determinlint:allow <rule> <reason>
//
// The reason is mandatory, and an allow that suppresses nothing is
// itself reported when the full suite runs, so stale suppressions
// cannot accumulate.
//
// A package opts into the deterministic ruleset either by appearing in
// the runner's Deterministic set (the repo pins its paper-bearing
// packages in DefaultDeterministic) or by carrying the file-level
// directive
//
//	//determinlint:deterministic
//
// in any of its files.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Analyzer is one named source check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full suite in report order.
func All() []*Analyzer {
	return []*Analyzer{
		MapRange,
		WallClock,
		ParBody,
		GuardedField,
		FloatEq,
		HotPath,
		CodecPair,
		GoLeak,
		LockOrder,
	}
}

// ByName resolves a comma-separated analyzer list against All.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, strings.Join(AnalyzerNames(), ", "))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty analyzer list")
	}
	return out, nil
}

// AnalyzerNames lists every analyzer name, plus the reserved directive
// pseudo-rule.
func AnalyzerNames() []string {
	var out []string
	for _, a := range All() {
		out = append(out, a.Name)
	}
	return out
}

// Diagnostic is one finding, positioned for file:line reporting.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass is the per-(analyzer, package) unit of work handed to
// Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Path     string // import path
	// Det marks packages bound by the deterministic ruleset (maprange,
	// wallclock, floateq, codecpair). parbody and guardedfield apply
	// everywhere.
	Det bool
	// Goleak marks packages bound by the goroutine-join rule.
	Goleak bool

	suite *Suite
}

// Reportf records a finding at pos unless an allow directive for this
// analyzer covers the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suite.allowed(p.Analyzer.Name, position) {
		return
	}
	p.suite.diags = append(p.suite.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// directive names.
const (
	directivePrefix   = "//determinlint:"
	allowDirective    = "//determinlint:allow"
	detPkgDirective   = "//determinlint:deterministic"
	hotpathDirective  = "//determinlint:hotpath"    // on a func decl, interface method, or func-typed field
	goroutinesDir     = "//determinlint:goroutines" // file-level opt-in to the goleak rule
	directiveRuleName = "directive"                 // pseudo-rule for malformed/stale directives
)

// allow is one parsed //determinlint:allow directive.
type allow struct {
	rule   string
	reason string
	pos    token.Position
	used   bool
}

// Suite runs a set of analyzers over loaded packages.
type Suite struct {
	// Analyzers to run; nil means All().
	Analyzers []*Analyzer
	// Deterministic marks additional packages (by import path) as bound
	// by the deterministic ruleset, beyond those carrying the
	// //determinlint:deterministic directive.
	Deterministic func(path string) bool
	// Goroutines marks additional packages (by import path) as bound by
	// the goleak rule, beyond those carrying the
	// //determinlint:goroutines directive (the repo pins its
	// concurrency-bearing packages in GoroutinePaths).
	Goroutines func(path string) bool

	diags   []Diagnostic
	allows  map[string]map[int][]*allow // filename -> line -> directives
	pkgs    []*Package                  // the packages of the current Run, for cross-package passes
	idx     *modIndex                   // lazy module-wide call-graph index
	timings []RuleTiming
}

// RuleTiming is one analyzer's cost and yield over a full Run.
type RuleTiming struct {
	Name     string
	Duration time.Duration
	Findings int
}

// Timings reports per-analyzer wall time and finding counts for the
// most recent Run, in All() order (plus the directive pseudo-rule when
// it fired).
func (s *Suite) Timings() []RuleTiming { return s.timings }

// DeterministicPaths is the repo's pinned set of deterministic
// packages: every package whose output feeds a bit-accounted,
// seed-deterministic result table (see ISSUE/DESIGN). The list is
// belt-and-braces with the //determinlint:deterministic directive each
// of these packages also carries.
var DeterministicPaths = map[string]bool{
	"compactrouting/internal/dist":      true,
	"compactrouting/internal/metric":    true,
	"compactrouting/internal/labeled":   true,
	"compactrouting/internal/nameind":   true,
	"compactrouting/internal/rnet":      true,
	"compactrouting/internal/exp":       true,
	"compactrouting/internal/faultsim":  true,
	"compactrouting/internal/sim":       true,
	"compactrouting/internal/walk":      true,
	"compactrouting/internal/ballpack":  true,
	"compactrouting/internal/treeroute": true,
	"compactrouting/internal/tz":        true,
	"compactrouting/internal/trace":     true,
	"compactrouting/internal/frame":     true,
	"compactrouting/internal/snapshot":  true,
}

// GoroutinePaths is the repo's pinned set of packages bound by the
// goleak rule: everywhere a detached goroutine could outlive the work
// it serves (the serving plane, the CONGEST simulator, fault
// experiments, the worker pool, and the long-running binaries).
var GoroutinePaths = map[string]bool{
	"compactrouting/internal/server":   true,
	"compactrouting/internal/dist":     true,
	"compactrouting/internal/faultsim": true,
	"compactrouting/internal/par":      true,
	"compactrouting/cmd/routed":        true,
	"compactrouting/cmd/routeload":     true,
}

// Run executes the suite and returns the findings sorted by position.
// Malformed directives and — when the full suite is running — stale
// (unused) allow directives are reported under the pseudo-rule
// "directive".
func (s *Suite) Run(pkgs []*Package) []Diagnostic {
	anas := s.Analyzers
	if anas == nil {
		anas = All()
	}
	s.diags = nil
	s.allows = make(map[string]map[int][]*allow)
	s.pkgs = pkgs
	s.idx = nil
	elapsed := make(map[string]time.Duration, len(anas))
	for _, pkg := range pkgs {
		s.collectDirectives(pkg)
	}
	for _, pkg := range pkgs {
		det := hasDetDirective(pkg)
		if !det && s.Deterministic != nil {
			det = s.Deterministic(pkg.Path)
		}
		goleak := hasFileDirective(pkg, goroutinesDir)
		if !goleak && s.Goroutines != nil {
			goleak = s.Goroutines(pkg.Path)
		}
		for _, a := range anas {
			start := time.Now()
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Path:     pkg.Path,
				Det:      det,
				Goleak:   goleak,
				suite:    s,
			})
			elapsed[a.Name] += time.Since(start)
		}
	}
	if len(anas) == len(All()) {
		s.reportUnusedAllows()
	}
	s.timings = s.timings[:0]
	counts := make(map[string]int)
	for _, d := range s.diags {
		counts[d.Analyzer]++
	}
	for _, a := range anas {
		s.timings = append(s.timings, RuleTiming{Name: a.Name, Duration: elapsed[a.Name], Findings: counts[a.Name]})
	}
	if counts[directiveRuleName] > 0 {
		s.timings = append(s.timings, RuleTiming{Name: directiveRuleName, Findings: counts[directiveRuleName]})
	}
	sort.Slice(s.diags, func(i, j int) bool {
		a, b := s.diags[i], s.diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return s.diags
}

// collectDirectives parses every //determinlint: comment in the
// package, indexing allow directives by file and line and reporting
// malformed ones immediately.
func (s *Suite) collectDirectives(pkg *Package) {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if text == detPkgDirective || text == hotpathDirective || text == goroutinesDir {
					continue
				}
				if !strings.HasPrefix(text, allowDirective) {
					s.diags = append(s.diags, Diagnostic{
						Pos: pos, Analyzer: directiveRuleName,
						Message: fmt.Sprintf("unknown determinlint directive %q (want %s, %s, %s, or %s)", text, allowDirective, detPkgDirective, hotpathDirective, goroutinesDir),
					})
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, allowDirective))
				if len(fields) == 0 {
					s.diags = append(s.diags, Diagnostic{
						Pos: pos, Analyzer: directiveRuleName,
						Message: "allow directive names no rule: want //determinlint:allow <rule> <reason>",
					})
					continue
				}
				rule := fields[0]
				if !known[rule] {
					s.diags = append(s.diags, Diagnostic{
						Pos: pos, Analyzer: directiveRuleName,
						Message: fmt.Sprintf("allow directive names unknown rule %q (have %s)", rule, strings.Join(AnalyzerNames(), ", ")),
					})
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(text, allowDirective), " "+rule))
				if reason == "" {
					s.diags = append(s.diags, Diagnostic{
						Pos: pos, Analyzer: directiveRuleName,
						Message: fmt.Sprintf("allow directive for %q carries no reason: suppressions must say why the pattern is safe", rule),
					})
					continue
				}
				byLine := s.allows[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]*allow)
					s.allows[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], &allow{rule: rule, reason: reason, pos: pos})
			}
		}
	}
}

// allowed reports (and consumes) a matching allow directive on the
// diagnostic's line or the line directly above it.
func (s *Suite) allowed(rule string, pos token.Position) bool {
	byLine := s.allows[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, al := range byLine[line] {
			if al.rule == rule {
				al.used = true
				return true
			}
		}
	}
	return false
}

// reportUnusedAllows flags allow directives that suppressed nothing, so
// fixed code sheds its stale suppressions.
func (s *Suite) reportUnusedAllows() {
	for _, byLine := range s.allows {
		for _, als := range byLine {
			for _, al := range als {
				if !al.used {
					s.diags = append(s.diags, Diagnostic{
						Pos: al.pos, Analyzer: directiveRuleName,
						Message: fmt.Sprintf("unused allow directive: no %s finding on this or the next line", al.rule),
					})
				}
			}
		}
	}
}

// hasDetDirective reports whether any file of the package carries the
// //determinlint:deterministic marker.
func hasDetDirective(pkg *Package) bool {
	return hasFileDirective(pkg, detPkgDirective)
}

// hasFileDirective reports whether any file of the package carries the
// given file-level marker comment.
func hasFileDirective(pkg *Package, directive string) bool {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(c.Text) == directive {
					return true
				}
			}
		}
	}
	return false
}

// enclosingFunc returns the innermost function declaration or literal
// containing pos, searching the package's files.
func enclosingFunc(files []*ast.File, pos token.Pos) ast.Node {
	var best ast.Node
	for _, f := range files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			if pos < n.Pos() || pos > n.End() {
				return false
			}
			switch n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				best = n // innermost wins: Inspect descends
			}
			return true
		})
	}
	return best
}
