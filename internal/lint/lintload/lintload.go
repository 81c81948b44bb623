// Package lintload type-checks Go packages for the joinoptlint suite without
// golang.org/x/tools: the caller names the files and supplies the gc export
// data of their imports (go vet's per-package config, or `go list -export`
// for the stdlib packages a test fixture imports — compiled into the local
// build cache, so both work offline), and types are imported through the
// standard library's gc importer with a lookup into that export map.
package lintload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"

	"joinopt/internal/lint"
)

// CheckFiles parses and type-checks an explicit file set as one package (the
// fixture runner and the vettool driver), returning it for lint.RunPackage.
func CheckFiles(path string, files []string, imp types.Importer) (*lint.Package, error) {
	fset := token.NewFileSet()
	var astFiles []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lintload: %w", err)
		}
		astFiles = append(astFiles, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, fset, astFiles, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lintload: type-checking %s: %v", path, typeErrs[0])
	}
	return &lint.Package{Fset: fset, Files: astFiles, Pkg: tpkg, TypesInfo: info}, nil
}

// exportImporter resolves imports through gc export data files, the same
// way the compiler and go vet do.
type exportImporter struct {
	exports map[string]string // import path -> export data file
	under   types.ImporterFrom
}

// NewExportImporter builds a types.Importer over a map from import path to
// gc export data file (from a vet config or `go list -export`).
func NewExportImporter(exports map[string]string) types.Importer {
	ei := &exportImporter{exports: exports}
	ei.under = importer.ForCompiler(token.NewFileSet(), "gc", ei.lookup).(types.ImporterFrom)
	return ei
}

func (ei *exportImporter) lookup(path string) (io.ReadCloser, error) {
	file, ok := ei.exports[path]
	if !ok {
		return nil, fmt.Errorf("lintload: no export data for %q", path)
	}
	return os.Open(file)
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	return ei.under.ImportFrom(path, "", 0)
}

// StdImporter lists the named stdlib packages (with their dependency
// closure) and returns an importer over their export data — the fixture
// loader uses it so testdata packages can import fmt/sync/time offline.
func StdImporter(pkgs ...string) (types.Importer, error) {
	cmd := exec.Command("go", append([]string{
		"list", "-e", "-export", "-deps", "-json=ImportPath,Export",
	}, pkgs...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lintload: go list -export: %v\n%s", err, stderr.String())
	}
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return NewExportImporter(exports), nil
}
