package goflow_test

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
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The API-surface guard: every exported function or method of a serving
// package is reached from the program, not only from its tests. A
// function that only a test calls is either wired into what the binaries
// serve, unexported, or deleted (DESIGN.md, "API surface").

const modulePath = "github.com/urbancivics/goflow"

// servingPackages are the packages the binaries are built from. The
// experiment-side packages (device, analysis, adaptive, assim,
// experiment) export helpers for the paper's figure benches, and faults,
// simclock and storage/enginetest are test infrastructure; none is here.
var servingPackages = []string{
	"client", "cluster", "docstore", "geo", "goflow", "guard", "jsonenc",
	"mq", "obs", "predict", "sensing", "series", "soundcity", "storage", "wal",
}

// exportExceptions are the exports kept with no non-test caller, keyed
// "pkg.Func" or "pkg.Type.Method". DESIGN.md ("API surface") names the
// same entries.
var exportExceptions = map[string]string{
	// The user-data erasure route will call these.
	"goflow.Server.Logout":              "erasure route: ends a client's session",
	"goflow.Accounts.RemoveClient":      "erasure route: forgets a client's account",
	"goflow.Channels.Unsubscribe":       "erasure route: tears down a client's channels",
	"goflow.DataManager.DeleteUserData": "erasure route: deletes a contributor's observations",
	// The broker's counters, read by the internal/faults chaos suite to
	// check dedup hits and forced reconnects.
	"mq.Broker.Stats": "chaos suite reads dedup hits",
	"mq.Conn.Stats":   "chaos suite reads forced reconnects",
	// Feedback triggering at proper times: the DESIGN.md §3 extension
	// experiment, not yet behind a route.
	"soundcity.NewFeedbackTrigger":       "extension experiment (DESIGN.md §3)",
	"soundcity.FeedbackTrigger.Consider": "extension experiment (DESIGN.md §3)",
	"soundcity.BuildSensitivityProfile":  "extension experiment (DESIGN.md §3)",
	"soundcity.DefaultTriggerPolicy":     "extension experiment (DESIGN.md §3)",
}

func TestNoTestOnlyExports(t *testing.T) {
	unused, err := testOnlyExports()
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	seen := map[string]bool{}
	for _, u := range unused {
		seen[u.name] = true
		if _, ok := exportExceptions[u.name]; !ok {
			found = append(found, fmt.Sprintf("%s (%s)", u.name, u.pos))
		}
	}
	if len(found) > 0 {
		t.Errorf("%d exported functions have no non-test caller; wire each into the program, unexport it or delete it:\n\t%s",
			len(found), strings.Join(found, "\n\t"))
	}
	for name := range exportExceptions {
		if !seen[name] {
			t.Errorf("exception %s names no unused export; remove it here and in DESIGN.md", name)
		}
	}
}

type unusedExport struct {
	name string
	pos  token.Position
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
}

// goList lists the packages of ./... in dir and everything they import,
// in dependency order, with the compiler's export data for each.
func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Standard,Export", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// testOnlyExports type-checks the non-test files of the module and of
// the benchmark module (cmd/goflow-load, which calls the layers
// directly) and returns the serving packages' exported functions and
// methods that none of those files references. A method counts as
// referenced when its type implements an interface, named or literal,
// that carries the method: the call goes through the interface.
func testOnlyExports() ([]unusedExport, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	var pkgs []listedPackage
	listed := map[string]bool{}
	for _, dir := range []string{root, filepath.Join(root, "cmd", "goflow-load")} {
		ps, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range ps {
			if !listed[p.ImportPath] {
				listed[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}

	fset := token.NewFileSet()
	exportData := map[string]string{}
	for _, p := range pkgs {
		if p.Standard {
			exportData[p.ImportPath] = p.Export
		}
	}
	imp := &moduleImporter{
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if f, ok := exportData[path]; ok && f != "" {
				return os.Open(f)
			}
			return nil, fmt.Errorf("no export data for %s", path)
		}),
		checked: map[string]*types.Package{},
	}
	serving := map[string]bool{}
	for _, name := range servingPackages {
		serving[modulePath+"/internal/"+name] = true
	}

	used := map[*types.Func]bool{}
	bodies := map[*types.Func][2]token.Pos{} // a declaration's own span: recursion is not a caller
	var ifaces []*types.Interface
	var candidates []*types.Func
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		imp.checked[p.ImportPath] = pkg

		for _, tv := range info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		for _, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, dep := range pkg.Imports() {
			if strings.HasPrefix(dep.Path(), modulePath) {
				continue
			}
			for _, name := range dep.Scope().Names() {
				if tn, ok := dep.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type())
				}
			}
		}
		if serving[p.ImportPath] {
			for _, f := range files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() && exportedReceiver(fd) {
						fn := info.Defs[fd.Name].(*types.Func)
						bodies[fn] = [2]token.Pos{fd.Pos(), fd.End()}
						candidates = append(candidates, fn)
					}
				}
			}
		}
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if span, ok := bodies[fn]; ok && span[0] <= id.Pos() && id.Pos() < span[1] {
				continue
			}
			used[fn] = true
		}
	}
	// error, and the methods package errors looks for through interface
	// literals of its own.
	errType := types.Universe.Lookup("error").Type()
	ifaces = append(ifaces, errType.Underlying().(*types.Interface))
	for _, m := range []struct {
		name       string
		param, res types.Type
	}{
		{"Unwrap", nil, errType},
		{"Unwrap", nil, types.NewSlice(errType)},
		{"Is", errType, types.Typ[types.Bool]},
		{"As", types.NewInterfaceType(nil, nil), types.Typ[types.Bool]},
	} {
		var params *types.Tuple
		if m.param != nil {
			params = types.NewTuple(types.NewParam(token.NoPos, nil, "", m.param))
		}
		sig := types.NewSignatureType(nil, nil, nil, params, types.NewTuple(types.NewParam(token.NoPos, nil, "", m.res)), false)
		ifaces = append(ifaces, types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, m.name, sig)}, nil).Complete())
	}

	byName := map[string][]*types.Interface{}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	var unused []unusedExport
	for _, fn := range candidates {
		if used[fn] || implementsDeclared(fn, byName[fn.Name()]) {
			continue
		}
		name := fn.Pkg().Name() + "." + fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			name = fn.Pkg().Name() + "." + receiverName(recv.Type()) + "." + fn.Name()
		}
		unused = append(unused, unusedExport{name: name, pos: fset.Position(fn.Pos())})
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].name < unused[j].name })
	return unused, nil
}

// implementsDeclared reports whether fn is a method whose receiver type
// implements one of ifaces, each of which has a method of fn's name.
func implementsDeclared(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// exportedReceiver reports whether fd is a function or a method of an
// exported type; a method of an unexported type is not the package's
// API, and only an interface reaches it from outside.
func exportedReceiver(fd *ast.FuncDecl) bool {
	if fd.Recv == nil {
		return true
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

func receiverName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// moduleImporter hands out the packages already checked from source and
// reads the standard library from the compiler's export data.
type moduleImporter struct {
	std     types.Importer
	checked map[string]*types.Package
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.checked[path]; ok {
		return p, nil
	}
	return im.std.Import(path)
}
