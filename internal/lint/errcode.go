package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Errcode enforces the typed-error contract of the public joinopt/live
// API (DESIGN.md "Error semantics"): every failure crossing the exported
// surface is a *live.Error carrying a Code, so callers can switch on it.
// The analyzer activates only in packages that declare (or alias) a
// struct type named Error with a Code field, and reports:
//
//   - an exported function or method returning a bare fmt.Errorf /
//     errors.New result in an error position — the caller gets an opaque
//     error with no Code to switch on;
//   - fmt.Errorf wrapping an existing *Error without %w — the wrap makes
//     the Code unreachable even through errors.As.
//
// Setup/admin paths that legitimately return plain errors carry
// `//lint:allow errcode <reason>` waivers; the request path itself must
// construct typed errors.
var Errcode = &Analyzer{
	Name: "errcode",
	Doc:  "reports untyped errors returned across the public API and wraps that drop an *Error's Code",
	Run:  runErrcode,
}

func runErrcode(pass *Pass) error {
	errType := apiErrorType(pass.Pkg)
	if errType == nil {
		return nil
	}
	info := pass.TypesInfo

	funcDecls(pass, func(decl *ast.FuncDecl, obj *types.Func) {
		if !decl.Name.IsExported() {
			return
		}
		errPositions := errorResultIndexes(obj)
		if len(errPositions) == 0 {
			return
		}
		// Only this function's own returns: nested closures return to
		// their own callers, not across the API boundary.
		walkStack(decl.Body, func(n ast.Node, _ []ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || len(ret.Results) == 0 {
				return true
			}
			for _, idx := range errPositions {
				if idx >= len(ret.Results) {
					continue
				}
				if name := rawErrorCtor(info, ret.Results[idx]); name != "" {
					pass.Report(ret.Results[idx].Pos(),
						"exported %s returns a bare %s across the typed-error API; construct a *%s.Error with a Code (or waive: //lint:allow errcode <reason>)",
						decl.Name.Name, name, pass.Pkg.Name())
				}
			}
			return true
		})
	})

	// Wrapping check, everywhere in the package: fmt.Errorf with an
	// *Error argument must carry it with %w or the Code is stranded.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.FullName() != "fmt.Errorf" || len(call.Args) < 2 {
				return true
			}
			hasTyped := false
			for _, arg := range call.Args[1:] {
				if t := info.TypeOf(arg); t != nil && isAPIError(t, errType) {
					hasTyped = true
					break
				}
			}
			if !hasTyped {
				return true
			}
			if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok &&
				!strings.Contains(lit.Value, "%w") {
				pass.Report(call.Pos(),
					"fmt.Errorf wraps a typed *Error without %%w: the Code becomes unreachable (use %%w or build a new *Error with the same Code)")
			}
			return true
		})
	}
	return nil
}

// apiErrorType returns the package's typed-error struct — a declared type
// (or alias) named Error whose struct has a Code field — or nil if the
// package is outside the contract.
func apiErrorType(pkg *types.Package) types.Type {
	obj, ok := pkg.Scope().Lookup("Error").(*types.TypeName)
	if !ok {
		return nil
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == "Code" {
			return obj.Type()
		}
	}
	return nil
}

func isAPIError(t, errType types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.Identical(t, errType)
}

// errorResultIndexes returns the flattened result positions whose declared
// type is the error interface.
func errorResultIndexes(fn *types.Func) []int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var idxs []int
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			idxs = append(idxs, i)
		}
	}
	return idxs
}

// rawErrorCtor reports whether e is a direct fmt.Errorf / errors.New call,
// returning the constructor's name for the message.
func rawErrorCtor(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return ""
	}
	switch fn.FullName() {
	case "fmt.Errorf":
		return "fmt.Errorf"
	case "errors.New":
		return "errors.New"
	}
	return ""
}
