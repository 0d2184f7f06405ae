package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File // non-test files, sorted by filename
	// TestFiles are the package's _test.go files, parsed but NOT
	// type-checked (they may belong to the external _test package and
	// pull in test-only dependencies). The codecpair analyzer walks them
	// syntactically to decide whether an encoder is exercised by a test
	// or fuzz target in its own package.
	TestFiles []*ast.File
	Types     *types.Package
	Info      *types.Info
}

// Module loads a tree of packages with go/parser + go/types only — no
// x/tools dependency. Imports inside the tree are type-checked from
// source (recursively, in dependency order); everything else resolves
// through the standard library's gc importer, falling back to the
// source importer when export data is unavailable.
type Module struct {
	RootDir string
	// ModPath is the module path ("compactrouting" for this repo). When
	// empty, import paths are directory paths relative to RootDir — the
	// layout the test fixtures use.
	ModPath string

	fset    *token.FileSet
	pkgs    map[string]*Package
	loading map[string]bool
	std     types.ImporterFrom
	stdSrc  types.Importer
	stdPkgs map[string]*types.Package
}

// NewModule prepares a loader rooted at dir. Reading the module path
// from go.mod is the caller's job (see ReadModulePath) so fixture trees
// without a go.mod stay loadable.
func NewModule(dir, modPath string) *Module {
	fset := token.NewFileSet()
	return &Module{
		RootDir: dir,
		ModPath: modPath,
		fset:    fset,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		std:     importer.Default().(types.ImporterFrom),
		stdSrc:  importer.ForCompiler(fset, "source", nil),
		stdPkgs: make(map[string]*types.Package),
	}
}

// ReadModulePath extracts the module path from dir/go.mod.
func ReadModulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module line in %s/go.mod", dir)
}

// LoadAll discovers every package directory under the root (skipping
// testdata, hidden and underscore-prefixed directories) and loads each,
// returning them sorted by import path.
func (m *Module) LoadAll() ([]*Package, error) {
	var paths []string
	err := filepath.WalkDir(m.RootDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != m.RootDir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		has, err := hasGoFiles(path)
		if err != nil {
			return err
		}
		if has {
			rel, err := filepath.Rel(m.RootDir, path)
			if err != nil {
				return err
			}
			paths = append(paths, m.importPath(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := m.Load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true, nil
		}
	}
	return false, nil
}

func (m *Module) importPath(rel string) string {
	rel = filepath.ToSlash(rel)
	if rel == "." {
		if m.ModPath != "" {
			return m.ModPath
		}
		return "."
	}
	if m.ModPath != "" {
		return m.ModPath + "/" + rel
	}
	return rel
}

// dirOf inverts importPath for tree-internal paths; ok is false for
// paths outside the tree.
func (m *Module) dirOf(path string) (string, bool) {
	if m.ModPath != "" {
		if path == m.ModPath {
			return m.RootDir, true
		}
		if rest, found := strings.CutPrefix(path, m.ModPath+"/"); found {
			return filepath.Join(m.RootDir, filepath.FromSlash(rest)), true
		}
		return "", false
	}
	dir := filepath.Join(m.RootDir, filepath.FromSlash(path))
	if has, err := hasGoFiles(dir); err == nil && has {
		return dir, true
	}
	return "", false
}

// Load parses and type-checks one tree-internal package (and,
// recursively, its tree-internal dependencies).
func (m *Module) Load(path string) (*Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	if m.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	dir, ok := m.dirOf(path)
	if !ok {
		return nil, fmt.Errorf("package %q is outside the module", path)
	}
	m.loading[path] = true
	defer delete(m.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names, testNames []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") {
			continue
		}
		if strings.HasSuffix(n, "_test.go") {
			testNames = append(testNames, n)
			continue
		}
		// Type-check the files a plain `go build` compiles: a
		// //go:build pair such as race/!race declares each name twice.
		match, err := build.Default.MatchFile(dir, n)
		if err != nil {
			return nil, err
		}
		if match {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	sort.Strings(testNames)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, n := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	cfg := &types.Config{Importer: (*moduleImporter)(m)}
	tpkg, err := cfg.Check(path, m.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	testFiles := make([]*ast.File, 0, len(testNames))
	for _, n := range testNames {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		testFiles = append(testFiles, f)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: m.fset, Files: files, TestFiles: testFiles, Types: tpkg, Info: info}
	m.pkgs[path] = pkg
	return pkg, nil
}

// moduleImporter resolves imports during type-checking: tree-internal
// packages load from source, the rest through the gc importer with a
// source-importer fallback.
type moduleImporter Module

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	m := (*Module)(mi)
	if _, ok := m.dirOf(path); ok {
		pkg, err := m.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if p, ok := m.stdPkgs[path]; ok {
		return p, nil
	}
	p, err := m.std.Import(path)
	if err != nil {
		p, err = m.stdSrc.Import(path)
		if err != nil {
			return nil, fmt.Errorf("import %q: %w", path, err)
		}
	}
	m.stdPkgs[path] = p
	return p, nil
}
