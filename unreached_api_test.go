package repro

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestUnreachedAPI keeps exported API that no entry point reaches from
// growing back. It type-checks every non-test package of the module
// (and of the e2ebench module, which only uses it) with the standard
// library's own type checker, lists every exported package-level name,
// exported method and exported struct field of the module's library
// packages that no non-test code reaches, and compares that list with
// the keep-list in testdata/unreached_api.txt.
//
// A struct field counts as reached when non-test code writes it (see
// scanWrites), so a field that production code reads but only tests
// set is listed. Fields with a json tag are exempt: encoding/json
// writes them by reflection.
//
// A method counts as reached when code calls it directly, or when its
// receiver type implements an interface whose method of that name is
// called: one of the module's interfaces, or a standard-library one
// the library calls back (stdCallbacks) on a value the module hands it
// as an interface.
//
// When the test names a new unreached name, delete it, or add a
// "name — reason" line to the keep-list. When it names a keep-list
// line that is deleted or now reached, remove the line.
func TestUnreachedAPI(t *testing.T) {
	got := unreachedAPI(t)
	keep := readKeepList(t, filepath.Join("testdata", "unreached_api.txt"))
	for _, name := range got {
		if _, ok := keep[name]; !ok {
			t.Errorf("%s: exported, but no non-test code reaches it (or, for a field, writes it); delete it or add %q to testdata/unreached_api.txt",
				name, name+" — <reason>")
		}
	}
	for name := range keep {
		if !slices.Contains(got, name) {
			t.Errorf("%s: on the keep-list, but deleted or now reached; remove its line from testdata/unreached_api.txt", name)
		}
	}
	if t.Failed() {
		t.Logf("unreached exported names:\n\t%s", strings.Join(got, "\n\t"))
	}
}

// stdCallbacks declares the standard-library interfaces whose methods
// the standard library calls on values it receives, so the module never
// names the call: fmt and errors call Error and String, io copies call
// Write, math/rand's Rand draws through a Source64, and errors.Is and
// errors.As call Unwrap on every error of a chain they walk.
const stdCallbacks = `package callbacks

import (
	"fmt"
	"io"
	"math/rand"
)

type (
	errorer   interface{ error }
	stringer  interface{ fmt.Stringer }
	writer    interface{ io.Writer }
	source    interface{ rand.Source64 }
	unwrapper interface{ Unwrap() error }
)
`

// modulePath is the main module's import path; the e2ebench module
// sits under it at repro/e2ebench.
const modulePath = "repro"

// readKeepList parses the "name — reason" lines of the keep-list.
func readKeepList(t *testing.T, file string) map[string]string {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	keep := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, ok := strings.Cut(line, " — ")
		if !ok || strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: want \"name — reason\", got %q", file, n, line)
			continue
		}
		if _, dup := keep[name]; dup {
			t.Errorf("%s:%d: %s listed twice", file, n, name)
		}
		keep[name] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return keep
}

// modPkg is one type-checked package of the repository.
type modPkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
	// userOnly marks packages whose own exported names are not
	// inventoried: commands, examples and the e2ebench module.
	userOnly bool
}

// unreachedAPI returns the sorted inventory of unreached names.
func unreachedAPI(t *testing.T) []string {
	t.Helper()
	// Type-check the pure-Go variant of the standard library, so the
	// source importer never runs cgo.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default.CgoEnabled = cgo })

	fset := token.NewFileSet()
	pkgs := loadPackages(t, fset)
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(p string) (*types.Package, error) {
		if p == modulePath || strings.HasPrefix(p, modulePath+"/") {
			if pkg := checked[p]; pkg != nil {
				return pkg, nil
			}
			return nil, fmt.Errorf("module package %s not checked yet", p)
		}
		return std.Import(p)
	})
	for _, p := range pkgs {
		p.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		var err error
		p.types, err = (&types.Config{Importer: imp}).Check(p.path, fset, p.files, p.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.path, err)
		}
		checked[p.path] = p.types
	}

	cbFile, err := parser.ParseFile(fset, "callbacks.go", stdCallbacks, 0)
	if err != nil {
		t.Fatal(err)
	}
	cbPkg, err := (&types.Config{Importer: imp}).Check("callbacks", fset, []*ast.File{cbFile}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var callbacks []*types.Interface
	for _, name := range cbPkg.Scope().Names() {
		callbacks = append(callbacks, cbPkg.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}

	u := newUsage()
	for _, p := range pkgs {
		u.scan(p)
	}

	var out []string
	for _, p := range pkgs {
		if p.userOnly {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !u.used[obj] {
				out = append(out, p.types.Name()+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); f.Exported() && !tagged && !u.written[f] {
						out = append(out, p.types.Name()+"."+name+"."+f.Name())
					}
				}
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					m := iface.ExplicitMethod(i)
					if m.Exported() && !u.used[m] {
						out = append(out, p.types.Name()+"."+name+"."+m.Name())
					}
				}
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !u.used[m] && !u.viaInterface(named, m.Name(), callbacks) {
					out = append(out, p.types.Name()+"."+name+"."+m.Name())
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadPackages parses the non-test files of every package under the
// repository root, in dependency order.
func loadPackages(t *testing.T, fset *token.FileSet) []*modPkg {
	t.Helper()
	byPath := map[string]*modPkg{}
	imports := map[string][]string{}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); dir != "." && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		}
		if err != nil {
			return err
		}
		p := &modPkg{path: path.Join(modulePath, filepath.ToSlash(dir))}
		top := strings.SplitN(filepath.ToSlash(dir), "/", 2)[0]
		p.userOnly = bp.Name == "main" || top == "e2ebench"
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		byPath[p.path] = p
		imports[p.path] = bp.Imports
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var order []*modPkg
	done := map[string]bool{}
	var visit func(string)
	visit = func(p string) {
		if done[p] {
			return
		}
		done[p] = true
		for _, dep := range imports[p] {
			if byPath[dep] != nil {
				visit(dep)
			}
		}
		order = append(order, byPath[p])
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	for _, p := range paths {
		visit(p)
	}
	return order
}

// usage collects, over every scanned package, the objects non-test code
// uses, the struct fields it writes, the interface methods it calls
// through an interface, and the named types whose values it converts
// to an interface.
type usage struct {
	used    map[types.Object]bool
	written map[*types.Var]bool
	// ifaceCalls maps a method name to the interfaces it is used
	// through.
	ifaceCalls map[string][]*types.Interface
	boxed      map[*types.TypeName]bool
}

func newUsage() *usage {
	return &usage{
		used:       map[types.Object]bool{},
		written:    map[*types.Var]bool{},
		ifaceCalls: map[string][]*types.Interface{},
		boxed:      map[*types.TypeName]bool{},
	}
}

// viaInterface reports whether method name of named is reached through
// an interface: a called interface method it implements, or a
// standard-library callback on a type the module converts to an
// interface.
func (u *usage) viaInterface(named *types.Named, name string, callbacks []*types.Interface) bool {
	impl := func(iface *types.Interface) bool {
		return types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)
	}
	for _, iface := range u.ifaceCalls[name] {
		if impl(iface) {
			return true
		}
	}
	if !u.boxed[named.Obj()] {
		return false
	}
	for _, iface := range callbacks {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == name && impl(iface) {
				return true
			}
		}
	}
	return false
}

// scan records p's uses. A use inside the object's own declaration (a
// recursive call, a self-referencing type) or in a method receiver
// does not count.
func (u *usage) scan(p *modPkg) {
	own := map[types.Object]ast.Node{}
	var receivers []ast.Node
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				own[p.info.Defs[d.Name]] = d
				if d.Recv != nil {
					receivers = append(receivers, d.Recv)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						own[p.info.Defs[s.Name]] = s
					case *ast.ValueSpec:
						for _, n := range s.Names {
							own[p.info.Defs[n]] = s
						}
					}
				}
			}
		}
	}
	within := func(pos token.Pos, n ast.Node) bool { return n != nil && n.Pos() <= pos && pos < n.End() }
	for id, obj := range p.info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		if within(id.Pos(), own[obj]) || slices.ContainsFunc(receivers, func(r ast.Node) bool { return within(id.Pos(), r) }) {
			continue
		}
		u.used[obj] = true
		if f, ok := obj.(*types.Func); ok {
			if recv := f.Signature().Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					u.ifaceCalls[f.Name()] = append(u.ifaceCalls[f.Name()], iface)
				}
			}
		}
	}
	for _, f := range p.files {
		u.scanConversions(p.info, f)
		u.scanWrites(p.info, f)
	}
}

// scanWrites marks the struct fields f writes: in a keyed or
// positional composite literal, as the target of an assignment or of
// ++/--, or by taking the field's address. A write inside the
// withDefaults method of the field's own struct does not count:
// filling in a default is not a setting.
func (u *usage) scanWrites(info *types.Info, f *ast.File) {
	var defaults *types.Struct // receiver struct of the enclosing withDefaults
	var defaultsEnd token.Pos
	mark := func(pos token.Pos, v *types.Var) {
		v = v.Origin()
		if defaults != nil && pos < defaultsEnd {
			for i := 0; i < defaults.NumFields(); i++ {
				if defaults.Field(i) == v {
					return
				}
			}
		}
		u.written[v] = true
	}
	markIdent := func(id *ast.Ident) {
		if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
			mark(id.Pos(), v)
		}
	}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			markIdent(sel.Sel)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			defaults = nil
			if n.Recv != nil && n.Name.Name == "withDefaults" {
				recv := info.Defs[n.Name].Type().(*types.Signature).Recv().Type()
				if ptr, ok := recv.(*types.Pointer); ok {
					recv = ptr.Elem()
				}
				defaults, _ = recv.Underlying().(*types.Struct)
				defaultsEnd = n.End()
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				target(lhs)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X)
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						markIdent(key)
					}
				} else if i < st.NumFields() {
					mark(elt.Pos(), st.Field(i))
				}
			}
		}
		return true
	})
}

// scanConversions marks the named types whose values f converts to an
// interface type: explicitly, as a call argument, in an assignment, a
// typed declaration, a return, a composite literal or a channel send.
func (u *usage) scanConversions(info *types.Info, f *ast.File) {
	box := func(e ast.Expr, target types.Type) {
		src := info.TypeOf(e)
		if target == nil || src == nil || !types.IsInterface(target) || types.IsInterface(src) {
			return
		}
		if ptr, ok := src.(*types.Pointer); ok {
			src = ptr.Elem()
		}
		if named, ok := src.(*types.Named); ok {
			u.boxed[named.Origin().Obj()] = true
		}
	}
	// open holds the functions enclosing the current node, outermost
	// first: their ends and result types, for return statements.
	type fnScope struct {
		end     token.Pos
		results *types.Tuple
	}
	var open []fnScope
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		for len(open) > 0 && open[len(open)-1].end <= n.Pos() {
			open = open[:len(open)-1]
		}
		switch n := n.(type) {
		case *ast.FuncDecl:
			open = append(open, fnScope{n.End(), info.Defs[n.Name].Type().(*types.Signature).Results()})
		case *ast.FuncLit:
			open = append(open, fnScope{n.End(), info.TypeOf(n).(*types.Signature).Results()})
		case *ast.CallExpr:
			tv := info.Types[n.Fun]
			if tv.IsType() {
				if len(n.Args) == 1 {
					box(n.Args[0], tv.Type)
				}
				return true
			}
			sig, ok := tv.Type.(*types.Signature)
			if !ok {
				return true
			}
			params := sig.Params()
			for i, arg := range n.Args {
				switch {
				case sig.Variadic() && i >= params.Len()-1 && !n.Ellipsis.IsValid():
					box(arg, params.At(params.Len()-1).Type().(*types.Slice).Elem())
				case i < params.Len():
					box(arg, params.At(i).Type())
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					box(n.Rhs[i], info.TypeOf(n.Lhs[i]))
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, v := range n.Values {
					box(v, info.TypeOf(n.Type))
				}
			}
		case *ast.ReturnStmt:
			if len(open) > 0 && open[len(open)-1].results.Len() == len(n.Results) {
				for i, r := range n.Results {
					box(r, open[len(open)-1].results.At(i).Type())
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				box(n.Value, ch.Elem())
			}
		case *ast.CompositeLit:
			u.scanLiteral(info, n, box)
		}
		return true
	})
}

// scanLiteral applies box to every element of a composite literal
// against the type of its slot.
func (u *usage) scanLiteral(info *types.Info, lit *ast.CompositeLit, box func(ast.Expr, types.Type)) {
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for i, elt := range lit.Elts {
		kv, isKV := elt.(*ast.KeyValueExpr)
		switch ut := t.Underlying().(type) {
		case *types.Struct:
			switch {
			case isKV:
				if key, ok := kv.Key.(*ast.Ident); ok {
					box(kv.Value, info.TypeOf(key))
				}
			case i < ut.NumFields():
				box(elt, ut.Field(i).Type())
			}
		case *types.Map:
			if isKV {
				box(kv.Key, ut.Key())
				box(kv.Value, ut.Elem())
			}
		case interface{ Elem() types.Type }: // slice or array
			if isKV {
				elt = kv.Value
			}
			box(elt, ut.Elem())
		}
	}
}
