package analysis

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
	"runtime"
)

// A Package is one loaded and parsed package. A matched package is
// also type-checked, ready to be handed to analyzers; a DepOnly one is
// a dependency outside the standard library, parsed only so that its
// //caft: directives are indexed.
type Package struct {
	PkgPath   string
	Name      string
	Dir       string
	GoFiles   []string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package // nil when DepOnly
	TypesInfo *types.Info    // nil when DepOnly
	DepOnly   bool
}

// listedPkg is the subset of `go list -json` output the loader reads.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	ImportMap  map[string]string
	DepOnly    bool
	Standard   bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load lists patterns with `go list -export -deps -json`, then parses
// and type-checks every matched (non-dependency) package from source.
// Dependencies — the standard library and module packages alike — are
// imported from compiler export data, so no network or pre-installed
// tooling beyond the go command itself is needed. Every dependency of
// every matched package resolves through one shared export-data
// importer: a matched package that is also imported by another matched
// package exists twice (once source-checked for its own pass, once
// from export data for its importers), but each pass sees one
// internally consistent world. Cross-pass object identity is
// deliberately not promised — the directive index keys scratch
// annotations by symbol path, not object pointer, for exactly this
// reason.
//
// Every dependency outside the standard library is also parsed, with
// comments, and returned with DepOnly set: analysis.Run indexes its
// directives but does not analyze it, so a run over a subset of the
// module sees the annotations of everything that subset calls.
//
// Test files are never loaded: GoFiles excludes _test.go, which is
// also how caftvet exempts tests from the determinism analyzers.
//
// dir is the directory to run go list in ("" = current directory).
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,Export,ImportMap,DepOnly,Standard,Incomplete,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	var listed []*listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		listed = append(listed, p)
	}

	fset := token.NewFileSet()
	imp := &moduleImporter{
		exports: make(map[string]string),
	}
	imp.gc = importer.ForCompiler(fset, "gc", imp.lookup)
	for _, p := range listed {
		if p.Export != "" {
			imp.exports[p.ImportPath] = p.Export
		}
	}

	var pkgs []*Package
	for _, p := range listed {
		if p.DepOnly && p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Incomplete {
			return nil, fmt.Errorf("go list: %s: incomplete package", p.ImportPath)
		}
		pkg, err := parse(fset, p)
		if err != nil {
			return nil, err
		}
		if !p.DepOnly {
			if err := check(imp, p.ImportMap, pkg); err != nil {
				return nil, err
			}
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// parse reads one listed package's files from source, with comments.
func parse(fset *token.FileSet, p *listedPkg) (*Package, error) {
	pkg := &Package{
		PkgPath: p.ImportPath,
		Name:    p.Name,
		Dir:     p.Dir,
		GoFiles: make([]string, 0, len(p.GoFiles)),
		Fset:    fset,
		Syntax:  make([]*ast.File, 0, len(p.GoFiles)),
		DepOnly: p.DepOnly,
	}
	for _, f := range p.GoFiles {
		name := p.Dir + string(os.PathSeparator) + f
		file, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		pkg.Syntax = append(pkg.Syntax, file)
		pkg.GoFiles = append(pkg.GoFiles, name)
	}
	return pkg, nil
}

// check type-checks one parsed package, filling Types and TypesInfo.
func check(imp *moduleImporter, importMap map[string]string, pkg *Package) error {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	imp.importMap = importMap
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(pkg.PkgPath, pkg.Fset, pkg.Syntax, info)
	if err != nil {
		return fmt.Errorf("type-checking %s: %v", pkg.PkgPath, err)
	}
	pkg.Types, pkg.TypesInfo = tpkg, info
	return nil
}

// moduleImporter resolves every import from compiler export data
// located by `go list -export`. The gc importer caches by path, so all
// matched packages of one load share a single consistent view of
// their dependency graph.
type moduleImporter struct {
	exports   map[string]string // import path -> export data file
	importMap map[string]string // current package's vendor/ImportMap remapping
	gc        types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if r, ok := m.importMap[path]; ok {
		path = r
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return m.gc.Import(path)
}

// lookup feeds the stdlib gc importer the export data files recorded
// by go list.
func (m *moduleImporter) lookup(path string) (io.ReadCloser, error) {
	f, ok := m.exports[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q (not listed as a dependency)", path)
	}
	return os.Open(f)
}
