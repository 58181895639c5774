// Package linttest is flowlint's analogue of
// golang.org/x/tools/go/analysis/analysistest: it loads a testdata fixture
// (plus any dependency packages in its subdirectories), applies one
// analyzer through the full lint.Run pipeline (so cross-package facts and
// ignore directives are honored exactly as in production), and compares the
// findings against // want annotations in the source.
//
// An expectation is a comment of the form
//
//	cell.Count = 7 // want `write to core\.Cell field Count`
//
// on the line the diagnostic is reported at. The backquoted (or quoted)
// strings are regular expressions matched against the finding message;
// several may appear on one line. Every finding must match an expectation
// and every expectation must be matched, or the test fails. A fixture file
// with no want comments is therefore a clean-path test: any finding in it
// fails.
//
// Check is the assertion core, returned as data instead of reported to a
// *testing.T; the meta-tests use it to assert that the harness itself fails
// on stale annotations.
package linttest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"flowcube/internal/lint"
)

// wantArgRE extracts the backquoted or double-quoted expectation patterns
// from the tail of a want comment.
var wantArgRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type expectation struct {
	re      *regexp.Regexp
	line    int
	matched bool
}

// Run loads the fixture under dir as package testdata/<base of dir> and
// applies the analyzer, reporting want-annotation mismatches as test errors.
func Run(t *testing.T, dir string, a *lint.Analyzer) {
	t.Helper()
	mismatches, err := Check(dir, "flowcube/internal/lint/testdata/"+filepath.Base(dir), a)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	for _, m := range mismatches {
		t.Error(m)
	}
}

// Check loads the fixture package under dir (dependency subpackages
// included), runs the analyzer with facts over the whole fixture, and
// returns one message per mismatch between findings and want annotations.
// A nil slice means the fixture passes.
func Check(dir, pkgPath string, a *lint.Analyzer) ([]string, error) {
	pkgs, err := lint.LoadFixture(dir, pkgPath)
	if err != nil {
		return nil, err
	}
	wants := make(map[string][]*expectation)
	for _, pkg := range pkgs {
		if err := collectWants(pkg, wants); err != nil {
			return nil, err
		}
	}
	findings := lint.Run(pkgs, []*lint.Analyzer{a})

	var mismatches []string
	for _, f := range findings {
		key := posKey(f.Position.Filename, f.Position.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			mismatches = append(mismatches, fmt.Sprintf("unexpected finding: %s", f))
		}
	}
	keys := make([]string, 0, len(wants))
	for key := range wants {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		for _, w := range wants[key] {
			if !w.matched {
				mismatches = append(mismatches, fmt.Sprintf("%s: expected finding matching %q, got none", key, w.re))
			}
		}
	}
	return mismatches, nil
}

func posKey(filename string, line int) string {
	return fmt.Sprintf("%s:%d", filename, line)
}

// collectWants scans the package's comments for want annotations.
func collectWants(pkg *lint.Package, wants map[string][]*expectation) error {
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				args := wantArgRE.FindAllString(rest, -1)
				if len(args) == 0 {
					return fmt.Errorf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, arg := range args {
					var pat string
					if strings.HasPrefix(arg, "`") {
						pat = strings.Trim(arg, "`")
					} else {
						var err error
						if pat, err = strconv.Unquote(arg); err != nil {
							return fmt.Errorf("%s: bad want pattern %s: %v", pos, arg, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return fmt.Errorf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					key := posKey(pos.Filename, pos.Line)
					wants[key] = append(wants[key], &expectation{re: re, line: pos.Line})
				}
			}
		}
	}
	return nil
}
