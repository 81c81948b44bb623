// Package lint is joinopt's static-analysis suite: four custom analyzers
// that enforce the live plane's invariants — pooled-object ownership,
// shard-lock discipline, the typed-error contract and the hot-path
// allocation budget — at build time instead of waiting for a runtime test
// to trip them. The suite is driven by cmd/joinoptlint (a `go vet
// -vettool`), wired into `make lint` and CI.
//
// The framework deliberately mirrors the golang.org/x/tools go/analysis
// API (Analyzer, Pass, Diagnostic) so the analyzers could move onto the
// real framework wholesale; it is re-implemented here on the standard
// library only, because the repo vendors nothing and builds offline.
//
// # Annotation markers
//
// The analyzers learn the invariants from comment markers in the code
// under analysis (all documented in the joinopt package comment too):
//
//   - `//joinopt:pooled` on a type declaration marks a pooled type whose
//     values recycle through a sync.Pool; on a function declaration it
//     marks a release function (calling it returns its first argument to
//     the pool, after which the argument is dead).
//   - `//joinopt:hotpath` on a function declaration opts the function into
//     the hotpath analyzer's allocation checks.
//   - `//joinopt:owns` on a struct field declares the field an owning
//     reference: storing a pooled object there is an ownership transfer,
//     not a leak.
//   - `//joinopt:xfer <reason>` on (or immediately above) a statement
//     blesses one escape site — a pooled value captured by a closure or
//     stored into an unmarked field — as a deliberate ownership transfer.
//   - `//joinopt:lockorder <first> <second>` anywhere in a package declares
//     that mutex class <first> (e.g. `execShard.mu`) is acquired before
//     <second>: lockcheck reports any acquisition of <first> while <second>
//     is held, even when the declared order itself never appears inside one
//     function (the second lock is taken in a callee).
//   - `//lint:allow <analyzer> <reason>` on (or immediately above) a line
//     suppresses that analyzer's diagnostics on the line. The reason is
//     mandatory: a bare waiver is itself reported.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static check. Run inspects the Pass's package and
// reports findings through pass.Report.
type Analyzer struct {
	Name string // short command-line / waiver name, e.g. "recyclecheck"
	Doc  string // one-paragraph description of what it enforces
	Run  func(pass *Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	markers *Markers // lazily built, shared across the suite's passes
	diags   *[]Diagnostic
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Report records a finding. Waiver filtering happens in RunPackage, not
// here, so analyzers stay oblivious to the suppression mechanism.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  sprintf(format, args...),
	})
}

// Package bundles one loaded, type-checked package for RunPackage.
type Package struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// RunPackage runs every analyzer over pkg, applies `//lint:allow` waivers,
// and returns the surviving diagnostics sorted by position. A waiver with
// no reason does not suppress anything — it is converted into a finding of
// its own, so every suppression in the tree documents itself.
//
// Findings in _test.go files are dropped: the invariants are production
// invariants, and tests routinely borrow pooled objects (AllocsPerRun
// closures, benchmark loops) in ways the analyzers would flag.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	m := newMarkers(pkg.Fset, pkg.Files, pkg.TypesInfo)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.TypesInfo,
			markers:   m,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, err
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if strings.HasSuffix(d.Pos.Filename, "_test.go") || m.allowed(d.Analyzer, d.Pos) {
			continue
		}
		kept = append(kept, d)
	}
	for _, d := range m.badWaivers() {
		if !strings.HasSuffix(d.Pos.Filename, "_test.go") {
			kept = append(kept, d)
		}
	}
	diags = kept
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, nil
}

// Markers returns the package's parsed annotation markers.
func (p *Pass) Markers() *Markers { return p.markers }

// Markers is the per-package index of joinopt/lint comment markers.
type Markers struct {
	fset *token.FileSet

	// pooledTypes maps a marked named type to true; release maps a marked
	// release function's *types.Func to true.
	pooledTypes map[*types.TypeName]bool
	release     map[*types.Func]bool
	hotpath     map[*types.Func]bool
	ownsFields  map[*types.Var]bool

	// xferLines and allow are keyed by "file:line". allow maps to the
	// analyzer names waived there; xfer blesses recyclecheck escapes.
	xferLines map[string]bool
	allow     map[string]map[string]bool
	bare      []Diagnostic // malformed markers (missing reason, class, …)

	lockOrders []LockOrder
}

// LockOrder is one `//joinopt:lockorder First Second` declaration.
type LockOrder struct {
	First, Second string
	Pos           token.Pos
}

// LockOrders returns the package's declared lock-acquisition orders.
func (m *Markers) LockOrders() []LockOrder { return m.lockOrders }

// PooledType reports whether t (a named type or pointer to one) is marked
// `//joinopt:pooled`.
func (m *Markers) PooledType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return m.pooledTypes[n.Obj()]
}

// ReleaseFunc reports whether fn is a marked release function.
func (m *Markers) ReleaseFunc(fn *types.Func) bool { return m.release[fn] }

// Hotpath reports whether fn is annotated `//joinopt:hotpath`.
func (m *Markers) Hotpath(fn *types.Func) bool { return m.hotpath[fn] }

// OwnsField reports whether the struct field is marked `//joinopt:owns`.
func (m *Markers) OwnsField(f *types.Var) bool { return m.ownsFields[f] }

// Xfer reports whether the line of pos (or the line above) carries a
// `//joinopt:xfer <reason>` ownership-transfer marker.
func (m *Markers) Xfer(pos token.Pos) bool {
	p := m.fset.Position(pos)
	return m.xferLines[lineKey(p.Filename, p.Line)] ||
		m.xferLines[lineKey(p.Filename, p.Line-1)]
}

func (m *Markers) allowed(analyzer string, pos token.Position) bool {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if set := m.allow[lineKey(pos.Filename, line)]; set[analyzer] || set["all"] {
			return true
		}
	}
	return false
}

func (m *Markers) badWaivers() []Diagnostic { return m.bare }

func lineKey(file string, line int) string { return sprintf("%s:%d", file, line) }

// newMarkers scans every comment and declaration of the package once.
func newMarkers(fset *token.FileSet, files []*ast.File, info *types.Info) *Markers {
	m := &Markers{
		fset:        fset,
		pooledTypes: map[*types.TypeName]bool{},
		release:     map[*types.Func]bool{},
		hotpath:     map[*types.Func]bool{},
		ownsFields:  map[*types.Var]bool{},
		xferLines:   map[string]bool{},
		allow:       map[string]map[string]bool{},
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m.scanComment(c)
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !hasMarker(d.Doc, "joinopt:pooled") && !hasMarker(d.Doc, "joinopt:hotpath") {
					continue
				}
				fn, ok := info.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				if hasMarker(d.Doc, "joinopt:pooled") {
					m.release[fn] = true
				}
				if hasMarker(d.Doc, "joinopt:hotpath") {
					m.hotpath[fn] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if hasMarker(d.Doc, "joinopt:pooled") || hasMarker(ts.Doc, "joinopt:pooled") || hasMarker(ts.Comment, "joinopt:pooled") {
						if tn, ok := info.Defs[ts.Name].(*types.TypeName); ok {
							m.pooledTypes[tn] = true
						}
					}
					// Struct fields: `//joinopt:owns` in the field's doc
					// or trailing comment.
					if st, ok := ts.Type.(*ast.StructType); ok {
						for _, fld := range st.Fields.List {
							if !hasMarker(fld.Doc, "joinopt:owns") && !hasMarker(fld.Comment, "joinopt:owns") {
								continue
							}
							for _, name := range fld.Names {
								if v, ok := info.Defs[name].(*types.Var); ok {
									m.ownsFields[v] = true
								}
							}
						}
					}
				}
			}
		}
	}
	return m
}

func (m *Markers) scanComment(c *ast.Comment) {
	text := strings.TrimPrefix(c.Text, "//")
	text = strings.TrimSpace(text)
	pos := m.fset.Position(c.Pos())
	switch {
	case strings.HasPrefix(text, "joinopt:xfer"):
		reason := strings.TrimSpace(strings.TrimPrefix(text, "joinopt:xfer"))
		if reason == "" {
			m.bare = append(m.bare, Diagnostic{
				Pos: pos, Analyzer: "lint",
				Message: "joinopt:xfer marker needs a reason: //joinopt:xfer <why ownership transfers here>",
			})
			return
		}
		m.xferLines[lineKey(pos.Filename, pos.Line)] = true
	case strings.HasPrefix(text, "joinopt:lockorder"):
		classes := strings.Fields(strings.TrimPrefix(text, "joinopt:lockorder"))
		if len(classes) != 2 {
			m.bare = append(m.bare, Diagnostic{
				Pos: pos, Analyzer: "lint",
				Message: "joinopt:lockorder marker needs two mutex classes: //joinopt:lockorder <first> <second>",
			})
			return
		}
		m.lockOrders = append(m.lockOrders, LockOrder{First: classes[0], Second: classes[1], Pos: c.Pos()})
	case strings.HasPrefix(text, "lint:allow"):
		rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:allow"))
		name, reason, _ := strings.Cut(rest, " ")
		if name == "" || strings.TrimSpace(reason) == "" {
			m.bare = append(m.bare, Diagnostic{
				Pos: pos, Analyzer: "lint",
				Message: "lint:allow waiver needs an analyzer and a reason: //lint:allow <analyzer> <why this is safe>",
			})
			return
		}
		key := lineKey(pos.Filename, pos.Line)
		if m.allow[key] == nil {
			m.allow[key] = map[string]bool{}
		}
		m.allow[key][name] = true
	}
}

func hasMarker(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == marker || strings.HasPrefix(text, marker+" ") {
			return true
		}
	}
	return false
}

// All returns the full suite in its canonical order.
func All() []*Analyzer {
	return []*Analyzer{Recyclecheck, Lockcheck, Errcode, Hotpath}
}
