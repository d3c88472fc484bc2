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
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The API-surface guards. The serving packages are what the shipped
// binaries link, and TestServingBoundary keeps the experiment side out
// of goflow-server and the server out of goflow-client. Every function
// or method of a serving package — exported, or unexported — is
// reached from the program, not only from its tests; no serving
// package declares a hook struct; and every exported option field is
// set by
// the program outside its own package and read by it. A function that
// only a test calls is either wired into what the binaries serve,
// unexported, or deleted; an option only its own package or a test sets
// becomes a constant (DESIGN.md, "API surface").

const modulePath = "github.com/urbancivics/goflow"

// servingBinaries are the binaries the project ships. The serving
// packages are the module packages either one links, read from the
// same go list pass that feeds the type-check: the linker, not a hand
// list, decides what counts as serving code.
var servingBinaries = []string{"cmd/goflow-server", "cmd/goflow-client"}

// exportExceptions are the exports kept with no non-test caller, keyed
// "pkg.Func" or "pkg.Type.Method". DESIGN.md ("API surface") names the
// same entries.
var exportExceptions = map[string]string{
	// The user-data erasure route will call these.
	"goflow.Server.Logout":              "erasure route: ends a client's session",
	"goflow.Accounts.RemoveClient":      "erasure route: forgets a client's account",
	"goflow.Channels.Unsubscribe":       "erasure route: tears down a client's channels",
	"goflow.DataManager.DeleteUserData": "erasure route: deletes a contributor's observations",
	// The connection's counters, read by the internal/faults chaos
	// suite to check forced reconnects.
	"mq.Conn.Stats": "chaos suite reads forced reconnects",
	// The simulated clock: the server links simclock for its Clock
	// interface, and the tests of goflow, predict, soundcity, cluster
	// and the benchmark's pacer (cmd/goflow-load) run on a Sim.
	"simclock.NewSim":      "test clock: goflow, predict, soundcity and cluster tests",
	"simclock.Sim.Advance": "test clock: the benchmark's pacer test advances it",
}

func TestNoTestOnlyExports(t *testing.T) {
	prog, err := loadProgram()
	if err != nil {
		t.Fatal(err)
	}
	unused := testOnlyExports(prog)
	var found []string
	seen := map[string]bool{}
	for _, u := range unused {
		seen[u.name] = true
		if _, ok := exportExceptions[u.name]; !ok {
			found = append(found, fmt.Sprintf("%s (%s)", u.name, u.pos))
		}
	}
	if len(found) > 0 {
		t.Errorf("%d functions have no non-test caller; wire each into the program, delete it, or (unexported) move it into a _test.go file:\n\t%s",
			len(found), strings.Join(found, "\n\t"))
	}
	for name := range exportExceptions {
		if !seen[name] {
			t.Errorf("exception %s names no unused export; remove it here and in DESIGN.md", name)
		}
	}
}

// hookExceptions are the hook structs a serving package keeps, keyed
// "pkg.Type". DESIGN.md §5 names the same entries.
var hookExceptions = map[string]string{
	"mq.LiveHooks": "the live fan-out latency is timed inside the publish path; goes with mq/live.go (ROADMAP item 3)",
}

// TestNoHookStructs keeps every count at one site: a serving package
// counts into its own atomics or obs values, and no struct of
// callbacks relays its events to a second counter. It fails on a type
// named Hooks or ending in Hooks, and on a SetHooks or SetIngestHooks
// function or method, in a serving package.
func TestNoHookStructs(t *testing.T) {
	prog, err := loadProgram()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range prog.pkgs {
		if !prog.serving[p.pkg.Path()] {
			continue
		}
		for id, obj := range p.info.Defs {
			var name string
			switch obj.(type) {
			case *types.TypeName:
				if obj.Parent() == p.pkg.Scope() && strings.HasSuffix(id.Name, "Hooks") {
					name = p.pkg.Name() + "." + id.Name
				}
			case *types.Func:
				if id.Name == "SetHooks" || id.Name == "SetIngestHooks" {
					name = p.pkg.Name() + "." + id.Name
				}
			}
			if name == "" {
				continue
			}
			seen[name] = true
			if _, ok := hookExceptions[name]; !ok {
				t.Errorf("%s (%s): count the event where it happens and let /metrics read it; no hook struct relays it", name, prog.fset.Position(id.Pos()))
			}
		}
	}
	for name := range hookExceptions {
		if !seen[name] {
			t.Errorf("exception %s names no hook struct; remove it here and in DESIGN.md", name)
		}
	}
}

// optionExceptions are the exported option fields kept although no
// non-test file outside their own package sets them, keyed
// "pkg.Type.Field". Each is a seam a test of another package sets, and
// its reason names that test. DESIGN.md ("API surface") names the same
// entries.
var optionExceptions = map[string]string{
	// The chaos suite dials through faulty conns and shrinks the
	// recovery budget so its nemesis schedule runs in seconds.
	"mq.ReconnectConfig.Dialer":         "faults.TestChaosExactlyOnceDelivery dials through faulty conns",
	"mq.ReconnectConfig.MaxAttempts":    "faults.TestChaosExactlyOnceDelivery retries forever",
	"mq.ReconnectConfig.BackoffBase":    "faults.TestChaosExactlyOnceDelivery backs off from 1ms",
	"mq.ReconnectConfig.BackoffMax":     "faults.TestChaosExactlyOnceDelivery caps backoff at 20ms",
	"mq.ReconnectConfig.Seed":           "faults.TestChaosExactlyOnceDelivery replays its jitter by seed",
	"mq.ReconnectConfig.PublishRetries": "faults.TestChaosExactlyOnceDelivery outlasts its partitions",
	"mq.ReconnectConfig.RPCTimeout":     "faults.TestChaosExactlyOnceDelivery detects black holes in 150ms",
	// Crash and truncation seams of the storage stack.
	"wal.Options.WrapSegment":           "docstore.TestWALKillRecover tears segment writes",
	"storage.LocalOptions.SegmentBytes": "cluster.TestSnapshotRejoinAfterTruncation seals a segment per flush",
	// The clock the quiet-route tests pin their forecasts to.
	"goflow.ServerConfig.Clock": "soundcity.TestQuietRouteEndToEnd pins the forecast instant",
	// Broker flow control waits for acknowledged-is-durable confirms
	// (ROADMAP item 1) before it is wired or deleted.
	"mq.QueueOptions.HighWatermark": "goflow.TestGuardAndFlowMetricsExposition; flow control waits on durable confirms",
}

// TestOptionFieldsSetAndRead is the guard on options: every exported
// field of an exported *Config, *Options or *Policy struct in a serving
// package is set by some non-test file outside its own package and read
// by some non-test file. A knob only its own package sets, or only
// tests turn, becomes a constant, an unexported field its package's
// tests set, or goes with the feature it gates (DESIGN.md, "API
// surface").
func TestOptionFieldsSetAndRead(t *testing.T) {
	prog, err := loadProgram()
	if err != nil {
		t.Fatal(err)
	}
	fields := optionFields(prog)
	var found []string
	seen := map[string]bool{}
	for _, f := range fields {
		if f.sets > 0 && f.reads > 0 {
			continue
		}
		seen[f.name] = true
		if _, ok := optionExceptions[f.name]; !ok {
			found = append(found, fmt.Sprintf("%s (%s): %d non-test sets, %d non-test reads", f.name, f.pos, f.sets, f.reads))
		}
	}
	if len(found) > 0 {
		t.Errorf("%d option fields are never set outside their package or never read outside tests; make each a constant or delete it with what it gates:\n\t%s",
			len(found), strings.Join(found, "\n\t"))
	}
	for name := range optionExceptions {
		if !seen[name] {
			t.Errorf("option exception %s names no unset or unread field; remove it here and in DESIGN.md", name)
		}
	}
	t.Logf("%d exported option fields, %d listed exceptions", len(fields), len(optionExceptions))
}

// experimentPackages are the figure-bench packages and the test
// infrastructure: none of them may reach the server binary.
var experimentPackages = []string{
	"internal/adaptive", "internal/analysis", "internal/assim", "internal/device",
	"internal/experiment", "internal/faults", "internal/storage/enginetest",
}

// clientPackages are all the module packages the phone-side CLI may
// link: the client library, the observation model and what they stand
// on. The server stack stays out of it.
var clientPackages = []string{
	"internal/client", "internal/geo", "internal/jsonenc", "internal/mq", "internal/sensing",
}

// TestServingBoundary pins the line the linker draws: goflow-server
// links none of the experiment side, and goflow-client links nothing
// of the server beyond the broker's wire.
func TestServingBoundary(t *testing.T) {
	prog, err := loadProgram()
	if err != nil {
		t.Fatal(err)
	}
	for _, dep := range prog.links["cmd/goflow-server"] {
		if slices.Contains(experimentPackages, strings.TrimPrefix(dep, modulePath+"/")) {
			t.Errorf("goflow-server links %s", dep)
		}
	}
	for _, dep := range prog.links["cmd/goflow-client"] {
		if !slices.Contains(clientPackages, strings.TrimPrefix(dep, modulePath+"/")) {
			t.Errorf("goflow-client links %s, which is not one of %v", dep, clientPackages)
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
	Deps       []string
}

// goList lists the packages of ./... in dir and everything they import,
// in dependency order, with the compiler's export data and the
// transitive imports of each.
func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Standard,Export,Deps", "./...")
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

// program is the one type-check pass both guards read: the non-test
// files of the module and of the benchmark module (cmd/goflow-load,
// which calls the layers directly), checked from source in dependency
// order.
type program struct {
	fset *token.FileSet
	pkgs []checkedPackage
	// links holds the module packages each of servingBinaries links,
	// keyed by the binary's directory; serving is their union.
	links   map[string][]string
	serving map[string]bool
}

type checkedPackage struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loadProgram type-checks the program once per test binary.
var loadProgram = sync.OnceValues(func() (*program, error) {
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

	prog := &program{fset: token.NewFileSet(), links: map[string][]string{}, serving: map[string]bool{}}
	exportData := map[string]string{}
	for _, p := range pkgs {
		if p.Standard {
			exportData[p.ImportPath] = p.Export
		}
		for _, bin := range servingBinaries {
			if p.ImportPath != modulePath+"/"+bin {
				continue
			}
			for _, dep := range p.Deps {
				if strings.HasPrefix(dep, modulePath+"/") {
					prog.links[bin] = append(prog.links[bin], dep)
					prog.serving[dep] = true
				}
			}
		}
	}
	for _, bin := range servingBinaries {
		if prog.links[bin] == nil {
			return nil, fmt.Errorf("go list did not list %s", bin)
		}
	}
	imp := &moduleImporter{
		std: importer.ForCompiler(prog.fset, "gc", func(path string) (io.ReadCloser, error) {
			if f, ok := exportData[path]; ok && f != "" {
				return os.Open(f)
			}
			return nil, fmt.Errorf("no export data for %s", path)
		}),
		checked: map[string]*types.Package{},
	}
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(prog.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
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
		pkg, err := conf.Check(p.ImportPath, prog.fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		imp.checked[p.ImportPath] = pkg
		prog.pkgs = append(prog.pkgs, checkedPackage{files: files, pkg: pkg, info: info})
	}
	return prog, nil
})

// testOnlyExports returns the serving packages' functions and methods
// — exported ones of the package's API, and every unexported one —
// that no non-test file of the program references. A method counts as
// referenced when its type implements an interface, named or literal,
// that carries the method: the call goes through the interface.
func testOnlyExports(prog *program) []unusedExport {
	used := map[*types.Func]bool{}
	bodies := map[*types.Func][2]token.Pos{} // a declaration's own span: recursion is not a caller
	var ifaces []*types.Interface
	var candidates []*types.Func
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, p := range prog.pkgs {
		for _, tv := range p.info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, dep := range p.pkg.Imports() {
			if strings.HasPrefix(dep.Path(), modulePath) {
				continue
			}
			for _, name := range dep.Scope().Names() {
				if tn, ok := dep.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type())
				}
			}
		}
		if prog.serving[p.pkg.Path()] {
			for _, f := range p.files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
						continue
					}
					if !fd.Name.IsExported() || exportedReceiver(fd) {
						fn := p.info.Defs[fd.Name].(*types.Func)
						bodies[fn] = [2]token.Pos{fd.Pos(), fd.End()}
						candidates = append(candidates, fn)
					}
				}
			}
		}
		for id, obj := range p.info.Uses {
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
		unused = append(unused, unusedExport{name: name, pos: prog.fset.Position(fn.Pos())})
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].name < unused[j].name })
	return unused
}

type optionField struct {
	name        string
	pos         token.Position
	sets, reads int
}

// optionFields counts the non-test sets and reads of every exported
// field of the serving packages' exported *Config, *Options and *Policy
// structs. A set is a key of a keyed literal, a position in an unkeyed
// one, the target of an assignment or of ++/--, or the operand of &x.F
// (how flags bind); every other use is a read. Only a set from outside
// the field's own package counts: a default the package fills in
// itself is a constant, not an option.
func optionFields(prog *program) []*optionField {
	counts := map[*types.Var]*optionField{}
	var fields []*optionField
	for _, p := range prog.pkgs {
		if !prog.serving[p.pkg.Path()] {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					counts[f] = &optionField{name: p.pkg.Name() + "." + name + "." + f.Name(), pos: prog.fset.Position(f.Pos())}
					fields = append(fields, counts[f])
				}
			}
		}
	}
	for _, p := range prog.pkgs {
		setAt := map[*ast.Ident]bool{}
		setSel := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				setAt[sel.Sel] = true
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						setSel(lhs)
					}
				case *ast.IncDecStmt:
					setSel(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setSel(n.X)
					}
				case *ast.CompositeLit:
					t := p.info.Types[n].Type
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							setAt[kv.Key.(*ast.Ident)] = true
						} else if f := st.Field(i).Origin(); counts[f] != nil && f.Pkg() != p.pkg {
							counts[f].sets++
						}
					}
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			v, ok := obj.(*types.Var)
			if !ok || !v.IsField() {
				continue
			}
			c := counts[v.Origin()]
			switch {
			case c == nil:
			case setAt[id]:
				if v.Pkg() != p.pkg {
					c.sets++
				}
			default:
				c.reads++
			}
		}
	}
	return fields
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
