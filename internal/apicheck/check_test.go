// Package apicheck is a tier-1 test that finds exported identifiers that
// nothing calls. It has no non-test code: go test ./internal/apicheck runs
// the check, and with -v also prints the exported-identifier count of every
// internal/ and cmd/ package and the config-field count of every
// configuration struct under internal/ (make loc shows both).
//
// It type-checks every package of a module tree from source: the module's
// own packages, its examples, and any nested module such as a frozen
// benchmark that imports them, whose test files count as callers too
// because they are not edited with the module. The standard library comes
// from the compiler's export data. It reports each exported func, type, var
// or method declared under internal/ or cmd/ that no non-test file
// references outside its own declaration. A reference from a declaration that is itself unused does not
// count, so a chain of dead exports is reported whole.
//
// A method is never reported when its name appears in an interface declared
// in the module or in a standard-library package the module imports: a call
// through the interface does not name the concrete method.
//
// An allow-list names the exports kept on purpose, one per line as
// "<package dir> <Name or Type.Method> <reason>". An entry without a reason,
// or one whose identifier is now used or no longer exists, is a problem too,
// so the list cannot outlive what it excuses.
package apicheck

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Report is the outcome of one check.
type Report struct {
	// Problems lists every unused export, malformed allow-list entry and
	// stale allow-list entry, one line each, sorted.
	Problems []string
	// Exported counts, per package dir under internal/ and cmd/, the
	// package-level exported names plus the exported methods of its types.
	Exported map[string]int
	// ConfigFields counts, per exported struct under internal/ named
	// Config, Options or *Config (keyed "<dir> <Name>"), its exported
	// fields: the knobs a caller can set.
	ConfigFields map[string]int
}

// Check loads the module tree at root and judges its exports against the
// allow-list file allowFile (relative to root; "" for none).
func Check(root, allowFile string) (*Report, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	var allow []allowEntry
	var problems []string
	if allowFile != "" {
		data, err := os.ReadFile(filepath.Join(root, allowFile))
		if err != nil {
			return nil, err
		}
		allow, problems = parseAllow(allowFile, data)
	}
	l, err := load(root)
	if err != nil {
		return nil, err
	}
	subjects, exported := l.subjects()
	l.markUses(subjects)
	live(subjects)

	allowed := make(map[string]bool)
	for _, e := range allow {
		s, ok := subjects[e.key]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("%s:%d: stale entry: %s is not an unused-export candidate (gone, unexported or an interface method)", allowFile, e.line, e.key))
		case s.live:
			problems = append(problems, fmt.Sprintf("%s:%d: stale entry: %s is used", allowFile, e.line, e.key))
		}
		allowed[e.key] = true
	}
	for key, s := range subjects {
		if !s.live && !allowed[key] {
			problems = append(problems, fmt.Sprintf("%s: %s is exported but no non-test file uses it", l.fset.Position(s.pos), key))
		}
	}
	sort.Strings(problems)
	return &Report{Problems: problems, Exported: exported, ConfigFields: l.configFields()}, nil
}

type allowEntry struct {
	key  string // "<dir> <Name>"
	line int
}

func parseAllow(name string, data []byte) (entries []allowEntry, problems []string) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			problems = append(problems, fmt.Sprintf("%s:%d: entry needs a package dir, a name and a reason: %q", name, n, line))
			continue
		}
		entries = append(entries, allowEntry{key: f[0] + " " + f[1], line: n})
	}
	return entries, problems
}

// pkg is one type-checked package of the tree.
type pkg struct {
	dir   string // slash-separated, relative to the root ("" for the root)
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type loader struct {
	root   string
	fset   *token.FileSet
	byPath map[string]*pkg // import path -> package, in-tree only
	bp     map[string]*build.Package
	std    types.Importer
	done   map[string]bool
}

// load parses and type-checks every package under root. Hidden, "_" and
// testdata directories are skipped, as the go tool skips them.
func load(root string) (*loader, error) {
	l := &loader{root: root, fset: token.NewFileSet(), byPath: map[string]*pkg{}, bp: map[string]*build.Package{}, done: map[string]bool{}}
	modPaths := map[string]string{} // dir -> module path, for dirs holding a go.mod
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if mod, err := os.ReadFile(filepath.Join(path, "go.mod")); err == nil {
			modPaths[path] = modulePath(mod)
		}
		bp, err := build.ImportDir(path, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		importPath, modDir, err := importPathOf(root, path, modPaths)
		if err != nil {
			return err
		}
		if modDir != root {
			bp.GoFiles = append(bp.GoFiles, bp.TestGoFiles...)
			bp.Imports = append(bp.Imports, bp.TestImports...)
		}
		l.bp[importPath] = bp
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.std, err = stdImporter(root, l.fset, l.bp)
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.bp))
	for p := range l.bp {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	return ""
}

// importPathOf is dir's import path, the nearest enclosing go.mod's module
// path plus dir's path below that go.mod, and the go.mod's dir.
func importPathOf(root, dir string, modPaths map[string]string) (string, string, error) {
	for m := dir; ; m = filepath.Dir(m) {
		if mod, ok := modPaths[m]; ok {
			rel, _ := filepath.Rel(m, dir)
			if rel == "." {
				return mod, m, nil
			}
			return mod + "/" + filepath.ToSlash(rel), m, nil
		}
		if m == root {
			return "", "", fmt.Errorf("apicheck: %s has no enclosing go.mod", dir)
		}
	}
}

// stdImporter reads export data for every out-of-tree import, located with
// one go list call instead of one per package.
func stdImporter(root string, fset *token.FileSet, bps map[string]*build.Package) (types.Importer, error) {
	need := map[string]bool{}
	for _, bp := range bps {
		for _, imp := range bp.Imports {
			if _, inTree := bps[imp]; !inTree && imp != "unsafe" {
				need[imp] = true
			}
		}
	}
	args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for imp := range need {
		args = append(args, imp)
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(goTool, args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("apicheck: go list -export: %v: %s", err, stderr.Bytes())
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			exports[path] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("apicheck: no export data for %s", path)
		}
		return os.Open(file)
	}), nil
}

// Import type-checks an in-tree package (after its in-tree imports) or
// hands a standard-library path to the export-data importer.
func (l *loader) Import(path string) (*types.Package, error) {
	bp, inTree := l.bp[path]
	if !inTree {
		return l.std.Import(path)
	}
	if p := l.byPath[path]; p != nil {
		return p.types, nil
	}
	if l.done[path] {
		return nil, fmt.Errorf("apicheck: import cycle through %s", path)
	}
	l.done[path] = true
	dir, _ := filepath.Rel(l.root, bp.Dir)
	p := &pkg{dir: filepath.ToSlash(dir), info: &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
	if p.dir == "." {
		p.dir = ""
	}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("apicheck: %v", err)
	}
	p.types = tp
	l.byPath[path] = p
	return tp, nil
}

// subject is one exported identifier the check judges.
type subject struct {
	obj   types.Object
	pos   token.Pos
	users map[types.Object]bool // enclosing declarations of its uses; nil key = none
	live  bool
}

// subjects lists the judged identifiers of the internal/ and cmd/ packages,
// keyed "<dir> <Name>" or "<dir> <Type>.<Method>", with methods named in
// any interface left out; it also counts each such package's exports.
func (l *loader) subjects() (map[string]*subject, map[string]int) {
	ifaceNames := l.interfaceMethodNames()
	subjects := map[string]*subject{}
	exported := map[string]int{}
	add := func(dir, name string, obj types.Object) {
		subjects[dir+" "+name] = &subject{obj: obj, pos: obj.Pos(), users: map[types.Object]bool{}}
	}
	for _, p := range l.byPath {
		if !strings.HasPrefix(p.dir, "internal/") && !strings.HasPrefix(p.dir, "cmd/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			exported[p.dir]++
			switch obj.(type) {
			case *types.Func, *types.Var, *types.TypeName:
				add(p.dir, name, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() {
					continue
				}
				exported[p.dir]++
				if !ifaceNames[m.Name()] {
					add(p.dir, name+"."+m.Name(), m)
				}
			}
		}
	}
	return subjects, exported
}

// configFields counts the exported fields of every exported struct type
// under internal/ named Options or ending in Config.
func (l *loader) configFields() map[string]int {
	counts := map[string]int{}
	for _, p := range l.byPath {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || (name != "Options" && !strings.HasSuffix(name, "Config")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			n := 0
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Exported() {
					n++
				}
			}
			counts[p.dir+" "+name] = n
		}
	}
	return counts
}

// interfaceMethodNames collects the method names of every interface the
// tree declares (named or literal) and of every named interface in the
// packages it imports, transitively, plus the universe's error.
func (l *loader) interfaceMethodNames() map[string]bool {
	names := map[string]bool{"Error": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		if _, inTree := l.byPath[tp.Path()]; !inTree {
			scope := tp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.byPath {
		walk(p.types)
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if t := p.info.TypeOf(it); t != nil {
						addIface(t)
					}
				}
				return true
			})
		}
	}
	return names
}

// markUses records, for every use of a subject in any package of the tree,
// the top-level declaration the use sits in. A use inside the subject's own
// declaration, or inside a method of a type subject, is not recorded.
func (l *loader) markUses(subjects map[string]*subject) {
	byObj := make(map[types.Object]*subject, len(subjects))
	for _, s := range subjects {
		byObj[s.obj] = s
	}
	for _, p := range l.byPath {
		byFile := make(map[*token.File]owners, len(p.files))
		for _, f := range p.files {
			byFile[l.fset.File(f.Pos())] = declOwners(f, p.info)
		}
		for id, obj := range p.info.Uses {
			s := byObj[origin(obj)]
			if s == nil {
				continue
			}
			user := byFile[l.fset.File(id.Pos())].at(id.Pos())
			if user == s.obj || isMethodOf(user, s.obj) {
				continue
			}
			s.users[user] = true
		}
	}
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func isMethodOf(user, typ types.Object) bool {
	fn, ok := user.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() == typ
}

// owners maps a file position to the object its top-level declaration
// declares (nil where that declares nothing judged, such as a const block).
type owners []owner

type owner struct {
	pos, end token.Pos
	obj      types.Object
}

func declOwners(f *ast.File, info *types.Info) owners {
	var list owners
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			list = append(list, owner{d.Pos(), d.End(), info.Defs[d.Name]})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				var obj types.Object
				switch s := spec.(type) {
				case *ast.TypeSpec:
					obj = info.Defs[s.Name]
				case *ast.ValueSpec:
					obj = info.Defs[s.Names[0]]
				}
				list = append(list, owner{spec.Pos(), spec.End(), obj})
			}
		}
	}
	return list
}

func (list owners) at(pos token.Pos) types.Object {
	i := sort.Search(len(list), func(i int) bool { return list[i].end >= pos })
	if i < len(list) && list[i].pos <= pos {
		return list[i].obj
	}
	return nil
}

// live marks every subject reachable from a use in a declaration that is
// not itself a subject.
func live(subjects map[string]*subject) {
	byObj := make(map[types.Object]*subject, len(subjects))
	for _, s := range subjects {
		byObj[s.obj] = s
	}
	for changed := true; changed; {
		changed = false
		for _, s := range subjects {
			if s.live {
				continue
			}
			for user := range s.users {
				if u := byObj[user]; u == nil || u.live {
					s.live = true
					changed = true
					break
				}
			}
		}
	}
}
