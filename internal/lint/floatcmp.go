package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// floatcmp polices equality on floating-point values. The flowcube measures
// are floats through and through — KL divergence, similarity ϕ, deviation
// maxima, mean durations — and `==`/`!=` on computed floats silently
// depends on rounding (and, before mapdet's fixes, on map iteration order).
// The project rule:
//
//   - computed floats are compared with stats.AlmostEqual (epsilon) or
//     restructured to avoid equality entirely (sort comparators use
//     two-sided `<`);
//   - comparisons against a *named constant* are allowed: sentinels like
//     core.SimilarityUnknown are assigned verbatim, never computed, so
//     exact equality is their contract — and writing `x == -1` instead of
//     `x == SimilarityUnknown` is exactly the bug this analyzer surfaces;
//   - comparisons against literal zero are allowed: they test "was never
//     touched / exact annihilation", which is well-defined in IEEE 754 and
//     pervasive in guard clauses (`if total == 0 { return 0 }`).
//
// Everything else is flagged.
//
// Kept by the ledger (DESIGN.md §5): row FC1 — nothing else caught it.

// FloatCmp flags == and != on floating-point operands.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc:  "flags ==/!= on floating-point values; compare with stats.AlmostEqual or a named sentinel constant",
	Run:  runFloatCmp,
}

func runFloatCmp(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass.Info.TypeOf(bin.X)) && !isFloat(pass.Info.TypeOf(bin.Y)) {
				return true
			}
			if floatCmpExempt(pass, bin.X) || floatCmpExempt(pass, bin.Y) {
				return true
			}
			diags = append(diags, Diagnostic{
				Pos: bin.Pos(),
				Message: fmt.Sprintf(
					"floating-point %s comparison; use stats.AlmostEqual (or compare against a named sentinel constant)",
					bin.Op),
			})
			return true
		})
	}
	return diags
}

// floatCmpExempt reports whether the operand makes an exact comparison
// legitimate: it is a reference to a named constant, or the literal zero.
func floatCmpExempt(pass *Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	// Named constant reference (sentinels: core.SimilarityUnknown, etc.).
	switch x := e.(type) {
	case *ast.Ident:
		if _, isConst := pass.Info.Uses[x].(*types.Const); isConst {
			return true
		}
	case *ast.SelectorExpr:
		if _, isConst := pass.Info.Uses[x.Sel].(*types.Const); isConst {
			return true
		}
	}
	// Literal (or constant-folded) exact zero.
	if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil {
		if constant.Sign(tv.Value) == 0 {
			return true
		}
	}
	return false
}
