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
// go/parser, and type-checked with go/types. Imports — both stdlib and
// intra-module — resolve through the stdlib source importer, which handles
// module paths by consulting the go command; that requires the process
// working directory to be inside the module, which ModuleRoot guarantees
// for callers that chdir to it.
//
// Test files (_test.go) are not loaded: the analyzers enforce production
// contracts, and tests legitimately construct and mutate cubes. Files
// excluded by build constraints (//go:build lines or _GOOS filename
// suffixes) for the host build context are skipped too — otherwise a pair
// of mutually exclusive platform files (mmap_linux.go / mmap_fallback.go)
// would type-check as one package and collide on their shared
// declarations.

// One FileSet and one source importer serve every Load and LoadFixture of
// the process: the importer type-checks what it is asked for from source and
// keeps it, so the standard library is checked once per process instead of
// once per call, and positions from different loads stay comparable. The
// source importer is not safe for concurrent use; srcMu serializes loads.
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
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
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
			if hasGoFiles(path) {
				dirSet[path] = true
			}
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

	srcMu.Lock()
	defer srcMu.Unlock()
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
		pkg, err := checkDir(srcImporter, dir, pkgPath)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// tableImporter resolves imports from already-loaded packages first, then
// falls back to the stdlib source importer. It is what lets a testdata
// fixture import a sibling testdata package — the go command refuses to
// resolve import paths under testdata/, so the fixture loader type-checks
// the dependency itself and serves it from the table.
type tableImporter struct {
	loaded   map[string]*types.Package
	fallback types.Importer
}

func (t *tableImporter) Import(path string) (*types.Package, error) {
	if p := t.loaded[path]; p != nil {
		return p, nil
	}
	return t.fallback.Import(path)
}

// LoadFixture loads the fixture package in dir under pkgPath, together with
// its dependency packages: every subdirectory of dir holding Go files is
// type-checked first as pkgPath/<sub> and made importable by the fixture.
// Packages are returned dependencies-first, the fixture package last.
// Dependencies must not import each other; fixtures that need a deeper graph
// should nest further subdirectories instead.
func LoadFixture(dir, pkgPath string) ([]*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	srcMu.Lock()
	defer srcMu.Unlock()
	imp := &tableImporter{
		loaded:   make(map[string]*types.Package),
		fallback: srcImporter,
	}
	var pkgs []*Package
	for _, e := range ents {
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		sub := filepath.Join(dir, e.Name())
		if !hasGoFiles(sub) {
			continue
		}
		subPath := pkgPath + "/" + e.Name()
		dep, err := checkDir(imp, sub, subPath)
		if err != nil {
			return nil, err
		}
		if dep != nil {
			imp.loaded[subPath] = dep.Pkg
			pkgs = append(pkgs, dep)
		}
	}
	main, err := checkDir(imp, dir, pkgPath)
	if err != nil {
		return nil, err
	}
	if main == nil {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return append(pkgs, main), nil
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

// checkDir parses and type-checks one directory into srcFset; callers hold
// srcMu.
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
