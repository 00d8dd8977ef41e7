package icares

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllowlistFile lists the exported symbols that production code does not
// reach but that stay on purpose, one "pkg.Symbol  reason" per line.
const apiAllowlistFile = "testdata/api_allowlist.txt"

// listedPackage is the subset of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
}

// goList runs `go list -json ./...` in dir and decodes the package stream.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("decode go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// moduleImporter resolves module packages to the ones type-checked from
// source and everything else to the toolchain's export data.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// apiSymbolKey names a symbol as "importpath.Name" or "importpath.Type.Method".
func apiSymbolKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// unreachedAPI type-checks the non-test files of the module and of
// perfbench and returns every exported package-level symbol, and every
// exported method of an exported type, that no production code uses. A
// method counts as used when any interface method of the same name is
// used, since a call through an interface can land on it.
func unreachedAPI(t *testing.T) []string {
	t.Helper()
	pkgs := goList(t, ".")
	module := map[string]bool{}
	for _, p := range pkgs {
		module[p.ImportPath] = true
	}
	pkgs = append(pkgs, goList(t, "perfbench")...)

	// Type-check in dependency order.
	byPath := map[string]listedPackage{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	var order []listedPackage
	seen := map[string]bool{}
	var visit func(string)
	visit = func(path string) {
		p, ok := byPath[path]
		if !ok || seen[path] {
			return
		}
		seen[path] = true
		for _, imp := range p.Imports {
			visit(imp)
		}
		order = append(order, p)
	}
	paths := make([]string, 0, len(byPath))
	for path := range byPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		visit(path)
	}

	fset := token.NewFileSet()
	imp := moduleImporter{checked: map[string]*types.Package{}, std: importer.Default()}
	used := map[types.Object]bool{}
	usedIfaceMethods := map[string]bool{}
	var declared []types.Object
	for _, p := range order {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		imp.checked[p.ImportPath] = tp
		for _, obj := range info.Uses {
			used[obj] = true
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					usedIfaceMethods[fn.Name()] = true
				}
			}
		}
		if !module[p.ImportPath] {
			continue
		}
		scope := tp.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			declared = append(declared, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					declared = append(declared, m)
				}
			}
		}
	}

	var out []string
	for _, obj := range declared {
		if used[obj] {
			continue
		}
		if _, ok := obj.(*types.Func); ok && usedIfaceMethods[obj.Name()] {
			continue
		}
		out = append(out, apiSymbolKey(obj))
	}
	sort.Strings(out)
	return out
}

// readAPIAllowlist parses the allowlist into symbol -> reason.
func readAPIAllowlist(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(apiAllowlistFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(text, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", apiAllowlistFile, line, sym)
		}
		if _, dup := allow[sym]; dup {
			t.Errorf("%s:%d: %s listed twice", apiAllowlistFile, line, sym)
		}
		allow[sym] = strings.TrimSpace(reason)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// TestExportedAPIReached fails when an exported symbol that no production
// code (module packages, commands, examples, perfbench) reaches is not on
// the allowlist, and when an allowlisted symbol is reached again or no
// longer exists, so the list can only shrink.
func TestExportedAPIReached(t *testing.T) {
	allow := readAPIAllowlist(t)
	unreached := unreachedAPI(t)
	isUnreached := map[string]bool{}
	var missing []string
	for _, sym := range unreached {
		isUnreached[sym] = true
		if _, ok := allow[sym]; !ok {
			missing = append(missing, sym)
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d exported symbols no production code reaches; delete them or list them with a reason in %s:\n  %s",
			len(missing), apiAllowlistFile, strings.Join(missing, "\n  "))
	}
	var stale []string
	for sym := range allow {
		if !isUnreached[sym] {
			stale = append(stale, sym)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("%d allowlisted symbols are reached by production code or gone; remove them from %s:\n  %s",
			len(stale), apiAllowlistFile, strings.Join(stale, "\n  "))
	}
	t.Logf("%d unreached exported symbols", len(unreached))
}
