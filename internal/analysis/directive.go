package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Directive grammar (documented in DESIGN.md S8 and S10):
//
//	//caft:deterministic
//	    In a package doc comment. Declares that the package's outputs
//	    must be byte-identical across runs, worker counts and
//	    platforms; enables the maporder and nondet analyzers.
//
//	//caft:unordered-ok <reason>
//	//caft:nondet-ok <reason>
//	//caft:share-ok <reason>
//	//caft:alloc-ok <reason>
//	    On the flagged line, or the line directly above it. Suppresses
//	    the maporder (resp. nondet, confine, zeroalloc) diagnostics on
//	    that line. The reason is mandatory; an empty reason is itself
//	    a diagnostic.
//
//	//caft:scratch [safe=Method]
//	    In a method or function doc comment. Declares that the result
//	    aliases scratch memory owned by the receiver, overwritten by
//	    the next call; enables the scratchalias analyzer at every call
//	    site. safe= names the copying variant callers should use to
//	    retain the result.
//
//	//caft:confined
//	    In a type declaration's doc comment. Declares the type
//	    single-goroutine: its values must not be captured by go
//	    statements, cross channels, live in package-level variables or
//	    sit in fields of non-confined types. Checked by the confine
//	    analyzer, also in packages that import the type.
//
//	//caft:zeroalloc
//	    In a function or method doc comment. Declares the body
//	    allocation-free on every path; the zeroalloc analyzer flags
//	    allocation sites and calls to functions not themselves marked
//	    //caft:zeroalloc (or known allocation-free), in any loaded
//	    package, so annotated hot paths compose across packages.
//
// Like //go:build and friends, the comments must start at the
// beginning of the line with no space after "//".
const (
	dirDeterministic = "//caft:deterministic"
	dirUnorderedOK   = "//caft:unordered-ok"
	dirNondetOK      = "//caft:nondet-ok"
	dirShareOK       = "//caft:share-ok"
	dirAllocOK       = "//caft:alloc-ok"
	dirScratch       = "//caft:scratch"
	dirConfined      = "//caft:confined"
	dirZeroalloc     = "//caft:zeroalloc"
)

// ScratchInfo describes one //caft:scratch annotation.
type ScratchInfo struct {
	Safe string // copying variant to steer callers to, if any
}

// LineDirective is one //caft:unordered-ok, //caft:nondet-ok,
// //caft:share-ok or //caft:alloc-ok suppression, anchored to the
// source line its comment starts on.
type LineDirective struct {
	Kind   string // "unordered-ok", "nondet-ok", "share-ok" or "alloc-ok"
	Reason string
	Pos    token.Pos
	used   bool
}

// StrayDirective is a declaration directive (//caft:confined,
// //caft:zeroalloc) that is not anchored to a declaration of the right
// kind — the comment outlived the type or function it annotated.
type StrayDirective struct {
	Kind string // "confined" or "zeroalloc"
	Pos  token.Pos
}

// Directives indexes every //caft: directive of a set of loaded
// packages. It is the repo-grown substitute for go/analysis facts:
// analysis.Run builds one index over all packages of a load, the
// DepOnly dependencies included, so a scratch annotation in
// internal/sched is visible while analyzing internal/core even when
// only internal/core was asked for.
type Directives struct {
	deterministic map[string]bool
	scratch       map[string]ScratchInfo              // see scratchKey
	confined      map[string]bool                     // "pkg.Type"
	zeroalloc     map[string]bool                     // same keys as scratch
	lines         map[string]map[int][]*LineDirective // filename -> line
	strays        map[string][]StrayDirective         // filename -> unanchored decl directives
}

// NewDirectives returns an empty index.
func NewDirectives() *Directives {
	return &Directives{
		deterministic: make(map[string]bool),
		scratch:       make(map[string]ScratchInfo),
		confined:      make(map[string]bool),
		zeroalloc:     make(map[string]bool),
		lines:         make(map[string]map[int][]*LineDirective),
		strays:        make(map[string][]StrayDirective),
	}
}

// AddPackage scans one loaded package's comments into the index.
func (d *Directives) AddPackage(p *Package) {
	for _, f := range p.Syntax {
		d.addFile(p, f)
	}
}

func (d *Directives) addFile(p *Package, f *ast.File) {
	if f.Doc != nil {
		for _, c := range f.Doc.List {
			if strings.TrimRight(c.Text, " \t") == dirDeterministic {
				d.deterministic[p.PkgPath] = true
			}
		}
	}
	// anchored records declaration-directive comments that sit in the
	// doc group of a declaration of the right kind; occurrences found
	// elsewhere in the file are stale and reported by their analyzer.
	anchored := make(map[token.Pos]bool)
	for _, decl := range f.Decls {
		switch dd := decl.(type) {
		case *ast.FuncDecl:
			if dd.Doc == nil {
				continue
			}
			for _, c := range dd.Doc.List {
				if rest, ok := cutDirective(c.Text, dirScratch); ok {
					d.scratch[scratchKeyAST(p.PkgPath, dd)] = parseScratch(rest)
				}
				if _, ok := cutDirective(c.Text, dirZeroalloc); ok {
					d.zeroalloc[scratchKeyAST(p.PkgPath, dd)] = true
					anchored[c.Pos()] = true
				}
			}
		case *ast.GenDecl:
			if dd.Tok != token.TYPE {
				continue
			}
			for _, spec := range dd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				// A single `type Foo ...` hangs its doc on the GenDecl;
				// specs inside a `type (...)` block carry their own.
				docs := []*ast.CommentGroup{ts.Doc}
				if len(dd.Specs) == 1 {
					docs = append(docs, dd.Doc)
				}
				for _, doc := range docs {
					if doc == nil {
						continue
					}
					for _, c := range doc.List {
						if _, ok := cutDirective(c.Text, dirConfined); ok {
							d.confined[p.PkgPath+"."+ts.Name.Name] = true
							anchored[c.Pos()] = true
						}
					}
				}
			}
		}
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			var kind, rest string
			if r, ok := cutDirective(c.Text, dirUnorderedOK); ok {
				kind, rest = "unordered-ok", r
			} else if r, ok := cutDirective(c.Text, dirNondetOK); ok {
				kind, rest = "nondet-ok", r
			} else if r, ok := cutDirective(c.Text, dirShareOK); ok {
				kind, rest = "share-ok", r
			} else if r, ok := cutDirective(c.Text, dirAllocOK); ok {
				kind, rest = "alloc-ok", r
			} else {
				if _, ok := cutDirective(c.Text, dirConfined); ok && !anchored[c.Pos()] {
					posn := p.Fset.Position(c.Pos())
					d.strays[posn.Filename] = append(d.strays[posn.Filename], StrayDirective{Kind: "confined", Pos: c.Pos()})
				}
				if _, ok := cutDirective(c.Text, dirZeroalloc); ok && !anchored[c.Pos()] {
					posn := p.Fset.Position(c.Pos())
					d.strays[posn.Filename] = append(d.strays[posn.Filename], StrayDirective{Kind: "zeroalloc", Pos: c.Pos()})
				}
				continue
			}
			posn := p.Fset.Position(c.Pos())
			byLine := d.lines[posn.Filename]
			if byLine == nil {
				byLine = make(map[int][]*LineDirective)
				d.lines[posn.Filename] = byLine
			}
			byLine[posn.Line] = append(byLine[posn.Line], &LineDirective{
				Kind:   kind,
				Reason: strings.TrimSpace(rest),
				Pos:    c.Pos(),
			})
		}
	}
}

// cutDirective reports whether line is the given directive, returning
// the argument text after it. "//caft:scratchpad" must not match
// "//caft:scratch", so the directive must be followed by a space or
// end-of-comment.
func cutDirective(line, dir string) (rest string, ok bool) {
	if !strings.HasPrefix(line, dir) {
		return "", false
	}
	rest = line[len(dir):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return rest, true
}

func parseScratch(rest string) ScratchInfo {
	var info ScratchInfo
	for _, f := range strings.Fields(rest) {
		if v, ok := strings.CutPrefix(f, "safe="); ok {
			info.Safe = v
		}
	}
	return info
}

// Deterministic reports whether pkgPath carries //caft:deterministic.
func (d *Directives) Deterministic(pkgPath string) bool { return d.deterministic[pkgPath] }

// Scratch looks up the //caft:scratch annotation of a function or
// method, if any.
func (d *Directives) Scratch(fn *types.Func) (ScratchInfo, bool) {
	info, ok := d.scratch[scratchKeyFunc(fn)]
	return info, ok
}

// Confined reports whether the named type carries //caft:confined in
// any loaded package.
func (d *Directives) Confined(obj *types.TypeName) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return d.confined[obj.Pkg().Path()+"."+obj.Name()]
}

// Zeroalloc reports whether the function or method carries
// //caft:zeroalloc in any loaded package.
func (d *Directives) Zeroalloc(fn *types.Func) bool {
	return d.zeroalloc[scratchKeyFunc(fn)]
}

// ZeroallocDecl reports whether the function declaration carries
// //caft:zeroalloc, keyed from syntax — used by the zeroalloc analyzer
// to pick the bodies it walks.
func (d *Directives) ZeroallocDecl(pkgPath string, fd *ast.FuncDecl) bool {
	return d.zeroalloc[scratchKeyAST(pkgPath, fd)]
}

// SuppressedAt returns the line suppression of the given kind covering
// pos: one whose comment starts on the same line as pos or on the line
// directly above. The returned directive is marked used, which feeds
// the unused-suppression check. One directive suppresses every
// diagnostic of its kind on its line.
func (d *Directives) SuppressedAt(fset *token.FileSet, pos token.Pos, kind string) (*LineDirective, bool) {
	posn := fset.Position(pos)
	byLine := d.lines[posn.Filename]
	if byLine == nil {
		return nil, false
	}
	for _, line := range []int{posn.Line, posn.Line - 1} {
		for _, ld := range byLine[line] {
			if ld.Kind == kind {
				ld.used = true
				return ld, true
			}
		}
	}
	return nil, false
}

// UnusedIn returns the suppression directives of one file that no
// diagnostic consulted, in line order. A suppression with nothing to
// suppress is stale and reported by the analyzer that owns its kind.
func (d *Directives) UnusedIn(fset *token.FileSet, f *ast.File, kind string) []*LineDirective {
	posn := fset.Position(f.Pos())
	byLine := d.lines[posn.Filename]
	var out []*LineDirective
	for _, lds := range byLine { //caft:unordered-ok sorted by position below
		for _, ld := range lds {
			if !ld.used && ld.Kind == kind {
				out = append(out, ld)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// StraysIn returns the unanchored declaration directives of one file,
// in position order: a //caft:confined not in a type declaration's doc
// comment, or a //caft:zeroalloc not in a function's — what remains
// when the declaration is deleted or the comment drifts from it.
func (d *Directives) StraysIn(fset *token.FileSet, f *ast.File, kind string) []StrayDirective {
	posn := fset.Position(f.Pos())
	var out []StrayDirective
	for _, s := range d.strays[posn.Filename] {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// scratchKeyAST derives the lookup key from syntax: "pkg.Type.Method"
// for methods, "pkg.Func" for plain functions.
func scratchKeyAST(pkgPath string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkgPath + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch u := t.(type) {
		case *ast.StarExpr:
			t = u.X
		case *ast.IndexExpr: // generic receiver
			t = u.X
		case *ast.IndexListExpr:
			t = u.X
		default:
			name := "?"
			if id, ok := t.(*ast.Ident); ok {
				name = id.Name
			}
			return pkgPath + "." + name + "." + fd.Name.Name
		}
	}
}

// scratchKeyFunc derives the same key from a types.Func at a call site.
func scratchKeyFunc(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return "." + fn.Name()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg.Path() + "." + fn.Name()
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	name := "?"
	if n, ok := rt.(*types.Named); ok {
		name = n.Obj().Name()
	} else if n, ok := rt.(interface{ Obj() *types.TypeName }); ok {
		name = n.Obj().Name()
	}
	return pkg.Path() + "." + name + "." + fn.Name()
}
