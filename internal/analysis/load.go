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
	"path/filepath"
	"runtime"
	"sort"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// A Loader type-checks packages of the enclosing module plus their
// standard-library dependencies. Module packages are enumerated with
// `go list -deps -json` (no network: everything resolves inside the module
// and GOROOT), which lists each package after its dependencies, and are
// checked in that order; stdlib imports are satisfied by the go/importer
// source importer, which compiles them from GOROOT source. A Loader is not
// safe for concurrent use.
type Loader struct {
	fset   *token.FileSet
	std    types.ImporterFrom
	byPath map[string]*Package // loaded module packages
}

// NewLoader returns an empty loader.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		byPath: make(map[string]*Package),
	}
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// Load enumerates every package of the module rooted at dir (`./...`)
// and type-checks them in dependency order. Test files are not loaded: the
// invariants the checks enforce govern the simulator and its tools, and
// test code deliberately probes the forbidden paths.
func (l *Loader) Load(dir string) ([]*Package, error) {
	listed, err := goList(dir)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, lp := range listed {
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := l.check(lp.Dir, lp.ImportPath, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		l.byPath[lp.ImportPath] = pkg
		out = append(out, pkg)
	}
	return out, nil
}

// CheckDir parses every .go file in dir as a single package and
// type-checks it under the given import path, resolving imports against
// the already-loaded module packages and the standard library. The
// analyzer test harness uses it to check golden fixture packages that live
// under testdata (invisible to the go tool) but import real module
// packages.
func (l *Loader) CheckDir(dir, importPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	sort.Strings(files)
	return l.check(dir, importPath, files)
}

// check parses and type-checks one package.
func (l *Loader) check(dir, importPath string, fileNames []string) (*Package, error) {
	files := make([]*ast.File, 0, len(fileNames))
	for _, name := range fileNames {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	cfg := types.Config{
		Importer:    loaderImporter{l},
		FakeImportC: true,
		Sizes:       types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := cfg.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

// loaderImporter resolves module packages from the loader's cache and
// everything else (the standard library) through the source importer.
type loaderImporter struct{ l *Loader }

func (im loaderImporter) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, "", 0)
}

func (im loaderImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := im.l.byPath[path]; ok {
		return p.Types, nil
	}
	return im.l.std.ImportFrom(path, srcDir, mode)
}

// goList runs `go list -deps -json ./...` in dir and decodes the package
// stream.
func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
