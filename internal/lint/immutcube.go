package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// immutcube enforces the ownership rule documented on core.Cube and in
// core/delta.go: a cube generation is immutable once another goroutine can
// reach it — internal/server hands the same *core.Cube to every in-flight
// request, and every later generation forked from it shares its cuboids,
// cells and their flowgraphs' resting columns by pointer. Field writes to Cube, Cuboid, or
// Cell values are therefore only legal in the core files that either
// construct a cube nobody shares yet or reach cells through the one
// copy-on-write accessor, core.Cube.ownedCell. Everywhere else (the serving
// layer, CLI tools, examples, sibling internal packages) the cube is deeply
// read-only; a server that wants new data forks the served cube, patches
// the fork with core.ApplyDelta, and swaps it in.
//
// The designated files: build.go (Build, populate, exception mining),
// snapshotv2.go and lazyload.go (the decoders reconstruct a cube),
// partition.go (FilterCells and
// Merge assemble a new generation around shared cells), answer.go (whose
// reconstructed cells are freshly allocated per query and never part of
// the shared cube), delta.go (Fork, ownedCell, admitCell —
// the accessor itself — and ApplyDelta), and the accessor's other clients,
// which write only cells it handed them: query.go (MarkRedundancy,
// Compress, and DropCuboid on the generation's own cuboid table) and
// conds.go (exception re-mining and the per-cell condition cache).
//
// Detected write forms: field assignment (cell.Count = n, cell.Count++),
// writes through field-held maps and slices (cb.Cells[k] = v,
// cell.Values[i] = v), and delete(cb.Cells, k). Mutation through an
// aliased map or a method call — and whether a cell written in a designated
// file really came from the accessor — is out of static reach; the
// generation-isolation test (internal/core) covers that at run time.
//
// Kept by the ledger (DESIGN.md §5): rows IC1, IC4 — nothing else caught them.

// immutAllowedFiles maps package name → the files within it that may write
// cube state.
var immutAllowedFiles = map[string]map[string]bool{
	"core": {
		"build.go":      true,
		"delta.go":      true,
		"snapshotv2.go": true,
		"lazyload.go":   true,
		"query.go":      true,
		"answer.go":     true,
		"partition.go":  true,
		"conds.go":      true,
	},
}

var immutTypes = map[string]bool{
	"Cube":   true,
	"Cuboid": true,
	"Cell":   true,
}

// ImmutCube flags writes to core.Cube/Cuboid/Cell state outside the build
// phase.
var ImmutCube = &Analyzer{
	Name: "immutcube",
	Doc:  "flags writes to core.Cube/Cuboid/Cell fields outside the cube build phase",
	Run:  runImmutCube,
}

func runImmutCube(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pass.Files {
		// Designated mutation files may write.
		if immutAllowedFiles[pass.Pkg.Name()][pass.Filename(file.Pos())] {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range stmt.Lhs {
					if field, owner, ok := immutWriteTarget(pass.Info, lhs); ok {
						diags = append(diags, Diagnostic{
							Pos: lhs.Pos(),
							Message: fmt.Sprintf(
								"write to core.%s field %s outside the build phase (cube is immutable once served; see the concurrency contract on core.Cube)",
								owner, field),
						})
					}
				}
			case *ast.IncDecStmt:
				if field, owner, ok := immutWriteTarget(pass.Info, stmt.X); ok {
					diags = append(diags, Diagnostic{
						Pos: stmt.Pos(),
						Message: fmt.Sprintf(
							"write to core.%s field %s outside the build phase (cube is immutable once served; see the concurrency contract on core.Cube)",
							owner, field),
					})
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(stmt.Fun).(*ast.Ident); ok && id.Name == "delete" && len(stmt.Args) == 2 {
					if obj, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin && obj.Name() == "delete" {
						if field, owner, ok := immutWriteTarget(pass.Info, stmt.Args[0]); ok {
							diags = append(diags, Diagnostic{
								Pos: stmt.Pos(),
								Message: fmt.Sprintf(
									"delete from core.%s field %s outside the build phase (cube is immutable once served)",
									owner, field),
							})
						}
					}
				}
			}
			return true
		})
	}
	return diags
}

// immutWriteTarget reports whether the write target expression resolves (up
// through index and dereference operations) to a field of core.Cube,
// core.Cuboid, or core.Cell, returning the field and owning type names.
func immutWriteTarget(info *types.Info, e ast.Expr) (field, owner string, ok bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel := info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return "", "", false
			}
			named := namedOf(sel.Recv())
			if named == nil {
				return "", "", false
			}
			obj := named.Obj()
			if obj.Pkg() == nil || obj.Pkg().Name() != "core" || !immutTypes[obj.Name()] {
				return "", "", false
			}
			return x.Sel.Name, obj.Name(), true
		default:
			return "", "", false
		}
	}
}
