// Command docgate is the repository's documentation CI gate. It fails when
//
//   - a markdown file contains a relative link to a file or anchor-less
//     target that does not exist in the repository, or
//   - one of the repository's documents points into Go source by line
//     (sched.go:449): any edit above the line moves it, so a document names
//     the function instead (sched.Scheduler.Dispatch), or
//   - an internal package lacks a package doc comment, or
//   - an exported identifier in the fully-documented packages
//     (internal/backend, internal/sched, internal/metrics, internal/qos,
//     internal/reduction, internal/core, internal/precoding,
//     internal/softout, internal/telemetry, internal/anneal,
//     internal/router, cmd/fleetsim) lacks a doc
//     comment, or
//   - a Test…/Fuzz… name in a -run or -fuzz argument of the CI workflow
//     matches no function in any _test.go file — a renamed test would
//     otherwise leave its step green and empty, or
//   - the experiment IDs in the first column of docs/EXPERIMENTS.md's
//     experiment table are not exactly the IDs internal/experiments
//     registers.
//
// Run it from the repository root:
//
//	go run ./tools/docgate
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"quamax/internal/experiments"
)

// fullDocPackages are the directories where every exported identifier must
// carry a doc comment (ISSUE 2's godoc gate, extended to the compile/execute
// split's home packages by ISSUE 3, to the downlink precoding subsystem by
// ISSUE 4, to the telemetry plane by ISSUE 6, to the anneal engine by
// ISSUE 7, to the capability-descriptor surface and the fleet capacity
// planner by ISSUE 9, and to the solver-health plane by ISSUE 10).
var fullDocPackages = []string{
	"internal/backend",
	"internal/sched",
	"internal/metrics",
	"internal/qos",
	"internal/reduction",
	"internal/core",
	"internal/precoding",
	"internal/softout",
	"internal/telemetry",
	"internal/anneal",
	"internal/router",
	"internal/health",
	"cmd/fleetsim",
}

func main() {
	var problems []string
	problems = append(problems, checkMarkdownLinks(".")...)
	problems = append(problems, checkLineRefs(".")...)
	problems = append(problems, checkPackageDocs("internal")...)
	for _, dir := range fullDocPackages {
		problems = append(problems, checkExportedDocs(dir)...)
	}
	problems = append(problems, checkWorkflowTests(".github/workflows/go.yml")...)
	problems = append(problems, checkExperimentTable("docs/EXPERIMENTS.md")...)
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docgate: "+p)
		}
		fmt.Fprintf(os.Stderr, "docgate: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docgate: ok")
}

// mdLink matches inline markdown links; the target is group 1.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// checkMarkdownLinks verifies that every relative link target in the
// repository's markdown files resolves to an existing file or directory.
func checkMarkdownLinks(root string) []string {
	var problems []string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		base := info.Name()
		if info.IsDir() {
			if base == ".git" || base == ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(base, ".md") {
			return nil
		}
		// SNIPPETS.md and PAPERS.md are machine-generated retrieval digests
		// whose links reference source material outside this repository.
		if base == "SNIPPETS.md" || base == "PAPERS.md" {
			return nil
		}
		content, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(content), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue // external or intra-document link
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems,
					fmt.Sprintf("%s: broken link %q (%s does not exist)", path, m[1], resolved))
			}
		}
		return nil
	})
	if err != nil {
		problems = append(problems, "markdown walk: "+err.Error())
	}
	return problems
}

// lineRef matches a pointer into Go source by line, such as sched.go:449.
var lineRef = regexp.MustCompile(`\w+\.go:\d+`)

// rootDocs are the markdown files at the repository root that checkLineRefs
// reads, with every markdown file below the root; the other root files quote
// material from outside the tree.
var rootDocs = map[string]bool{"README.md": true, "ROADMAP.md": true, "CHANGES.md": true}

// checkLineRefs reports every file:line pointer into Go source in the
// repository's documents.
func checkLineRefs(root string) []string {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && d.Name() == ".git":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".md") || filepath.Dir(path) == root && !rootDocs[d.Name()]:
			return nil
		}
		content, err := os.ReadFile(path)
		for i, line := range strings.Split(string(content), "\n") {
			for _, ref := range lineRef.FindAllString(line, -1) {
				problems = append(problems, fmt.Sprintf("%s:%d: %q points into Go source by line; name the function", path, i+1, ref))
			}
		}
		return err
	})
	if err != nil {
		problems = append(problems, "markdown walk: "+err.Error())
	}
	return problems
}

// runArg matches a -run or -fuzz flag with its (possibly quoted) pattern;
// testName, the whole test names inside one ("^Fuzz" and "^$" hold none).
var (
	runArg   = regexp.MustCompile(`-(?:run|fuzz)[ =]('[^']*'|\S+)`)
	testName = regexp.MustCompile(`\b(?:Test|Fuzz)\w+`)
)

// checkWorkflowTests verifies that every test the workflow selects by name
// is defined by some _test.go file in the repository.
func checkWorkflowTests(workflow string) []string {
	yml, err := os.ReadFile(workflow)
	if err != nil {
		return []string{err.Error()}
	}
	var tests strings.Builder
	err = filepath.WalkDir(".", func(path string, _ os.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		tests.Write(src)
		return err
	})
	if err != nil {
		return []string{"test walk: " + err.Error()}
	}
	var problems []string
	for _, arg := range runArg.FindAllStringSubmatch(string(yml), -1) {
		for _, name := range testName.FindAllString(arg[1], -1) {
			if !strings.Contains(tests.String(), "\nfunc "+name+"(") {
				problems = append(problems, fmt.Sprintf("%s: a -run/-fuzz pattern selects %s, which no _test.go file defines", workflow, name))
			}
		}
	}
	return problems
}

// checkExperimentTable verifies that the experiment table of doc (the one
// whose header row starts "| ID |") has one row per registered experiment
// and no other.
func checkExperimentTable(doc string) []string {
	md, err := os.ReadFile(doc)
	if err != nil {
		return []string{err.Error()}
	}
	documented := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(string(md), "\n") {
		switch {
		case strings.HasPrefix(line, "| ID |"):
			inTable = true
		case inTable && !strings.HasPrefix(line, "|"):
			inTable = false
		case inTable && !strings.HasPrefix(line, "|---"):
			documented[strings.Trim(strings.TrimSpace(strings.Split(line, "|")[1]), "`")] = true
		}
	}
	var problems []string
	for _, x := range experiments.Registry {
		if !documented[x.ID] {
			problems = append(problems, fmt.Sprintf("%s: experiment %s is registered but has no row in the experiment table", doc, x.ID))
		}
		delete(documented, x.ID)
	}
	for id := range documented {
		problems = append(problems, fmt.Sprintf("%s: the experiment table lists %s, which internal/experiments does not register", doc, id))
	}
	return problems
}

// checkPackageDocs verifies every package under root carries a package doc
// comment in at least one non-test file.
func checkPackageDocs(root string) []string {
	var problems []string
	dirs := map[string]bool{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return []string{"package walk: " + err.Error()}
	}
	for dir := range dirs {
		pkgs, err := parseDir(dir)
		if err != nil {
			problems = append(problems, dir+": "+err.Error())
			continue
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil {
					documented = true
					break
				}
			}
			if !documented {
				problems = append(problems,
					fmt.Sprintf("%s: package %s has no package doc comment", dir, name))
			}
		}
	}
	return problems
}

// checkExportedDocs verifies every exported top-level identifier (types,
// funcs, methods on exported types, consts, vars) in dir has a doc comment;
// a group doc on a const/var/type block covers its specs.
func checkExportedDocs(dir string) []string {
	pkgs, err := parseDir(dir)
	if err != nil {
		return []string{dir + ": " + err.Error()}
	}
	var problems []string
	flag := func(pos token.Position, what string) {
		problems = append(problems,
			fmt.Sprintf("%s:%d: undocumented exported %s", pos.Filename, pos.Line, what))
	}
	for _, pkg := range pkgs {
		fset := pkg.fset
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !exportedFunc(d) {
						continue
					}
					if d.Doc == nil {
						flag(fset.Position(d.Pos()), "function "+d.Name.Name)
					}
				case *ast.GenDecl:
					groupDoc := d.Doc != nil
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && !groupDoc && s.Doc == nil {
								flag(fset.Position(s.Pos()), "type "+s.Name.Name)
							}
						case *ast.ValueSpec:
							if groupDoc || s.Doc != nil {
								continue
							}
							for _, n := range s.Names {
								if n.IsExported() {
									flag(fset.Position(s.Pos()), "value "+n.Name)
									break
								}
							}
						}
					}
				}
			}
		}
	}
	return problems
}

// exportedFunc reports whether d is an exported function, or an exported
// method on an exported receiver type.
func exportedFunc(d *ast.FuncDecl) bool {
	if !d.Name.IsExported() {
		return false
	}
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if ident, ok := t.(*ast.Ident); ok {
		return ident.IsExported()
	}
	return true
}

// parsedPkg pairs a parsed package with its file set for positions.
type parsedPkg struct {
	*ast.Package
	fset *token.FileSet
}

// parseDir parses the non-test Go files of one directory.
func parseDir(dir string) (map[string]*parsedPkg, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*parsedPkg, len(pkgs))
	for name, pkg := range pkgs {
		out[name] = &parsedPkg{Package: pkg, fset: fset}
	}
	return out, nil
}
