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
	"sync"
)

// Package loading for flowlint. Packages are discovered by walking the
// module tree (no go/packages available in this environment), parsed with
// go/parser, and type-checked with go/types. One loader serves Load and
// LoadFixture: it maps import paths under the module (or the fixture) to
// directories and type-checks each such package exactly once, in import
// order, the first time anything asks for it, so every package that
// imports it gets the same *types.Package. Only the standard library goes
// through the stdlib source importer.
//
// Test files (_test.go) are not loaded: the analyzers enforce production
// contracts, and tests legitimately construct and mutate cubes. Files
// excluded by build constraints (//go:build lines or _GOOS filename
// suffixes) for the host build context are skipped too — otherwise a pair
// of mutually exclusive platform files (mmap_linux.go / mmap_fallback.go)
// would type-check as one package and collide on their shared
// declarations.

// One FileSet and one source importer serve every Load and LoadFixture of
// the process: the importer type-checks the standard library packages it is
// asked for from source and keeps them, so the standard library is checked
// once per process instead of once per call, and positions from different
// loads stay comparable. The source importer is not safe for concurrent
// use; srcMu serializes its imports. Everything else a load touches is its
// own, or (the FileSet) safe for concurrent use.
var (
	srcMu       sync.Mutex
	srcFset     = token.NewFileSet()
	srcImporter = importer.ForCompiler(srcFset, "source", nil)
)

// Package is one parsed and type-checked package.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// ModuleRoot walks up from dir to the enclosing go.mod and returns its
// directory and module path.
func ModuleRoot(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Load expands the package patterns (./dir, ./dir/..., ./...) relative to
// the module root enclosing the working directory and returns the parsed,
// type-checked packages in deterministic (import path) order.
func Load(patterns []string) ([]*Package, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root, modPath, err := ModuleRoot(cwd)
	if err != nil {
		return nil, err
	}
	dirSet := make(map[string]bool)
	for _, pat := range patterns {
		pat, recursive := strings.CutSuffix(pat, "/...")
		base := filepath.Join(cwd, pat)
		if !recursive {
			if hasGoFiles(base) {
				dirSet[base] = true
			}
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			dirSet[path] = true // load skips directories without Go files
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)

	l := newLoader(modPath, root)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		pkgPath := modPath
		if rel != "." {
			pkgPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(pkgPath)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// LoadFixture loads the fixture package in dir under pkgPath, together with
// its dependency packages: every subdirectory of dir holding Go files is
// importable as pkgPath/<sub>, by the fixture and by each other — the go
// command refuses to resolve import paths under testdata/, so the loader
// maps them itself. Packages are returned in the order they were
// type-checked: dependencies first, the fixture package last.
func LoadFixture(dir, pkgPath string) ([]*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	l := newLoader(pkgPath, dir)
	for _, e := range ents {
		if e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			if _, err := l.load(pkgPath + "/" + e.Name()); err != nil {
				return nil, err
			}
		}
	}
	main, err := l.load(pkgPath)
	if err != nil {
		return nil, err
	}
	if main == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return l.order, nil
}

// loader type-checks one load's packages, each once. It is the types
// importer of every package it checks: base and the import paths below it
// are loaded from dir and its subdirectories (recursively, so dependencies
// are checked before their importers); any other import is standard
// library.
type loader struct {
	base, dir string
	pkgs      map[string]*Package // import path → package; nil for no Go files
	loading   map[string]bool
	order     []*Package // completion order: dependencies first
}

func newLoader(base, dir string) *loader {
	return &loader{base: base, dir: dir, pkgs: make(map[string]*Package), loading: make(map[string]bool)}
}

// dirOf maps an import path to its source directory, or "" outside base.
func (l *loader) dirOf(path string) string {
	if path == l.base {
		return l.dir
	}
	if rest, ok := strings.CutPrefix(path, l.base+"/"); ok {
		return filepath.Join(l.dir, filepath.FromSlash(rest))
	}
	return ""
}

func (l *loader) Import(path string) (*types.Package, error) {
	if l.dirOf(path) == "" {
		srcMu.Lock()
		defer srcMu.Unlock()
		return srcImporter.Import(path)
	}
	pkg, err := l.load(path)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("lint: no Go files for import %s", path)
	}
	return pkg.Pkg, nil
}

// load returns the package at pkgPath, type-checking it on first use.
func (l *loader) load(pkgPath string) (*Package, error) {
	if pkg, ok := l.pkgs[pkgPath]; ok {
		return pkg, nil
	}
	if l.loading[pkgPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", pkgPath)
	}
	l.loading[pkgPath] = true
	pkg, err := checkDir(l, l.dirOf(pkgPath), pkgPath)
	if err != nil {
		return nil, err
	}
	l.pkgs[pkgPath] = pkg
	if pkg != nil {
		l.order = append(l.order, pkg)
	}
	return pkg, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if isSourceFile(dir, e) {
			return true
		}
	}
	return false
}

func isSourceFile(dir string, e os.DirEntry) bool {
	name := e.Name()
	if e.IsDir() || !strings.HasSuffix(name, ".go") ||
		strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
		return false
	}
	// MatchFile applies //go:build constraints and _GOOS/_GOARCH filename
	// suffixes against the host build context, like the compiler would.
	match, err := build.Default.MatchFile(dir, name)
	return err == nil && match
}

// checkDir parses and type-checks one directory into srcFset.
func checkDir(imp types.Importer, dir, pkgPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if isSourceFile(dir, e) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(srcFset, filepath.Join(dir, name), nil, parser.ParseComments)
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
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(pkgPath, srcFset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", pkgPath, err)
	}
	return &Package{PkgPath: pkgPath, Dir: dir, Fset: srcFset, Files: files, Pkg: pkg, Info: info}, nil
}
