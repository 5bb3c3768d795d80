package spinddt_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestInternalPackagesReachable fails on an internal package that no
// program of the repository builds: one that only its own tests, or other
// such packages, import. The roots are the root package and every
// package main (cmd/, examples/ and the bench module's spinbench); an
// internal package must be reachable from one of them through non-test
// imports.
func TestInternalPackagesReachable(t *testing.T) {
	const module = "spinddt"
	imports := map[string][]string{} // import path -> its non-test imports
	roots := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			// The go tool skips these directories too.
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		if f.Name.Name == "main" || pkg == module {
			roots[pkg] = true
		}
		deps := imports[pkg]
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			deps = append(deps, imp)
		}
		imports[pkg] = deps
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var queue []string
	for pkg := range roots {
		queue = append(queue, pkg)
	}
	reached := map[string]bool{}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		if !reached[pkg] {
			reached[pkg] = true
			queue = append(queue, imports[pkg]...)
		}
	}
	if !reached[module+"/internal/core"] {
		t.Fatalf("no root reaches internal/core; roots found: %v", roots)
	}
	var orphans []string
	for pkg := range imports {
		if strings.HasPrefix(pkg, module+"/internal/") && !reached[pkg] {
			orphans = append(orphans, pkg)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Fatalf("internal packages that no command, example or the root package imports: %v", orphans)
	}
}
