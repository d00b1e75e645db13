package protocol

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestHookOverrides keeps DESIGN.md §3.7 honest: the hooks each variant
// declares itself (found by parsing this package) must be exactly the
// non-"—" cells of its row in the protocol × hook matrix, and base must
// answer every hook but Name.
func TestHookOverrides(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "### §3.7 ")
	if !ok {
		t.Fatal("DESIGN.md has no §3.7")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	ticked := regexp.MustCompile("`([A-Za-z]+)`")
	var hooks []string
	want := map[string][]string{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|---") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if hooks == nil { // header row: the hook names
			for _, c := range cells[1:] {
				hooks = append(hooks, ticked.FindStringSubmatch(c)[1])
			}
			continue
		}
		if len(cells) != len(hooks)+1 {
			t.Fatalf("matrix row has %d cells, want %d: %s", len(cells), len(hooks)+1, line)
		}
		variant := ticked.FindStringSubmatch(cells[0])[1]
		want[variant] = []string{}
		for i, c := range cells[1:] {
			if strings.TrimSpace(c) != "—" {
				want[variant] = append(want[variant], hooks[i])
			}
		}
	}
	if len(hooks) != 7 || len(want) != len(BuiltinSpecs()) {
		t.Fatalf("matrix has %d hooks and %d variants, want 7 and %d", len(hooks), len(want), len(BuiltinSpecs()))
	}

	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{"base": {}}
	for v := range want {
		got[v] = []string{}
	}
	for _, f := range pkgs["protocol"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			name := recv.(*ast.Ident).Name
			if _, tracked := got[name]; tracked && (fn.Name.Name == "Name" || slices.Contains(hooks, fn.Name.Name)) {
				got[name] = append(got[name], fn.Name.Name)
			}
		}
	}
	sort.Strings(hooks)
	for name, declared := range got {
		sort.Strings(declared)
		expect := hooks // base: every hook, no Name
		if name != "base" {
			expect = append([]string{"Name"}, want[name]...)
			sort.Strings(expect)
		}
		if !reflect.DeepEqual(declared, expect) {
			t.Errorf("%s declares %v; DESIGN.md §3.7 says %v", name, declared, expect)
		}
	}
}
