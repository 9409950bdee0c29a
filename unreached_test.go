package repro

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreachedReasons are the reasons an allowlist line may give for keeping
// a function that no binary links. README.md's "Every function has a
// caller" section says what each one means.
var unreachedReasons = map[string]bool{
	"testlib":  true, // a test library that other packages' tests import
	"asserted": true, // a method the benchmark finds by a type assertion
	"paper":    true, // a paper operation that an oracle test pins
	"hook":     true, // a test oracle, helper or planned hook
}

// TestEveryFunctionHasACaller fails on any function declared in a non-test
// file of the module that no binary links, unless testdata/unreached.txt
// names it with a reason, and on any line of that file whose function is
// now linked or no longer declared.
//
// It builds every main package with inlining off (-gcflags=all=-l), so a
// function whose every call was inlined still has a symbol, and lists the
// module's text symbols with `go tool nm`. A symbol is folded to the
// function that declares it: type arguments (`[go.shape.int8]`, which nm
// may print with spaces inside) are dropped, a pointer receiver reads as
// its type, and closures (`.func1`, `.gowrap1`, `-range1`, …) and method
// values (`-fm`) count for their enclosing function. The declared side is
// a go/parser walk of the files that `go list` selects for this platform.
//
// The list is a lower bound: the linker keeps every method whose name
// matches an interface method call it links, whether or not a value of
// that method's type ever reaches the call.
//
// It is skipped unless GOBLAZ_UNREACHED=1, since it builds every binary
// again: run it with
//
//	GOBLAZ_UNREACHED=1 go test -run '^TestEveryFunctionHasACaller$' .
func TestEveryFunctionHasACaller(t *testing.T) {
	if os.Getenv("GOBLAZ_UNREACHED") != "1" {
		t.Skip("set GOBLAZ_UNREACHED=1 to build every binary and check for unreached functions")
	}
	declared, mains := declaredFuncs(t)
	linked := linkedFuncs(t, mains)
	allowed := readAllowlist(t, filepath.Join("testdata", "unreached.txt"))

	var missing []string
	for sym, pos := range declared {
		if !linked[sym] && !allowed[sym] {
			missing = append(missing, sym+" ("+pos+")")
		}
	}
	var stale []string
	for sym := range allowed {
		switch {
		case declared[sym] == "":
			stale = append(stale, sym+", no longer declared")
		case linked[sym]:
			stale = append(stale, sym+", linked into a binary")
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, m := range missing {
		t.Errorf("no binary links %s: delete it, or give it a line in testdata/unreached.txt", m)
	}
	for _, s := range stale {
		t.Errorf("testdata/unreached.txt lists %s: drop the line", s)
	}
	t.Logf("%d functions declared, %d allowlisted", len(declared), len(allowed))
}

// declaredFuncs returns every function and method declared in a non-test
// file of the module, by symbol, with its position, and the import paths
// of the main packages.
func declaredFuncs(t *testing.T) (map[string]string, []string) {
	out, err := exec.Command("go", "list", "-f",
		"{{.ImportPath}}\t{{.Name}}\t{{.Dir}}\t{{join .GoFiles \"\\t\"}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	var mains []string
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		path, name, dir := f[0], f[1], f[2]
		if name == "main" {
			mains = append(mains, path)
		}
		for _, file := range f[3:] {
			if file == "" {
				continue
			}
			src, err := parser.ParseFile(fset, filepath.Join(dir, file), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range src.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				sym := path + "." + fn.Name.Name
				if fn.Recv != nil {
					sym = path + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				p := fset.Position(fn.Pos())
				rel, _ := filepath.Rel(wd, p.Filename)
				declared[sym] = rel + ":" + strconv.Itoa(p.Line)
			}
		}
	}
	return declared, mains
}

// recvName is a receiver's type name without its pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// closureSuffix matches what the compiler appends to a function's symbol
// for the code it generates inside or around it.
var closureSuffix = regexp.MustCompile(`(\.func\d+|\.gowrap\d+|\.deferwrap\d+|-range\d+|\.\d+|-fm)$`)

// linkedFuncs builds the main packages with inlining off and returns the
// functions of the module that any of them links.
func linkedFuncs(t *testing.T, mains []string) map[string]bool {
	dir := t.TempDir()
	args := append([]string{"build", "-gcflags=all=-l", "-o", dir + string(filepath.Separator)}, mains...)
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != len(mains) {
		t.Fatalf("built %d binaries for %d main packages: two share a name", len(bins), len(mains))
	}
	linked := map[string]bool{}
	for _, m := range mains {
		bin := filepath.Join(dir, path.Base(m))
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin, err)
		}
		sc := bufio.NewScanner(strings.NewReader(string(out)))
		for sc.Scan() {
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			switch sym := f[2]; {
			case strings.HasPrefix(sym, "repro/"):
				linked[funcOf(sym)] = true
			case strings.HasPrefix(sym, "main."):
				// The main package's symbols are named for "main".
				linked[m+funcOf(strings.TrimPrefix(sym, "main"))] = true
			}
		}
	}
	return linked
}

// funcOf folds a text symbol to the symbol of the function that declares
// it: repro/internal/core.(*width[go.shape.int8]).side.func1 reads as
// repro/internal/core.width.side.
func funcOf(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	s := b.String()
	for {
		loc := closureSuffix.FindStringIndex(s)
		if loc == nil {
			return s
		}
		s = s[:loc[0]]
	}
}

// readAllowlist reads lines of the form "<symbol> <reason>": blank lines
// and lines starting with # are skipped.
func readAllowlist(t *testing.T, name string) map[string]bool {
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 || !unreachedReasons[f[1]] {
			t.Fatalf("%s:%d: want \"<symbol> <reason>\" with a reason among testlib, asserted, paper, hook: %q", name, i+1, line)
		}
		if allowed[f[0]] {
			t.Fatalf("%s:%d: %s listed twice", name, i+1, f[0])
		}
		allowed[f[0]] = true
	}
	return allowed
}
