package apicheck

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestModuleHasNoUnusedExports is the check itself: every exported func,
// type, var and method under internal/ and cmd/ has a non-test caller in
// the module, its examples or the frozen benchmark, or an allow-list entry
// with a reason.
func TestModuleHasNoUnusedExports(t *testing.T) {
	r, err := Check("../..", "internal/apicheck/allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		printCounts(r.Exported)
		printConfigFields(r.ConfigFields)
	}
	for _, p := range r.Problems {
		t.Error(p)
	}
	data, err := os.ReadFile("allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	entries, _ := parseAllow("allow.txt", data)
	if len(entries) > 10 {
		t.Errorf("allow-list holds %d entries; keep it to 10 by deleting or moving dead surface instead", len(entries))
	}
}

// printCounts prints the exported-identifier count of each package dir and
// their total, the concept count make loc reports.
func printCounts(exported map[string]int) {
	dirs := make([]string, 0, len(exported))
	total := 0
	for dir, n := range exported {
		dirs = append(dirs, dir)
		total += n
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		fmt.Printf("%-24s %6d\n", dir+"/", exported[dir])
	}
	fmt.Printf("%-24s %6d\n", "exported total", total)
}

// printConfigFields prints the exported-field count of each configuration
// struct and their total, the config-field count make loc reports.
func printConfigFields(fields map[string]int) {
	keys := make([]string, 0, len(fields))
	total := 0
	for key, n := range fields {
		keys = append(keys, key)
		total += n
	}
	sort.Strings(keys)
	for _, key := range keys {
		dir, name, _ := strings.Cut(key, " ")
		fmt.Printf("%-32s %6d\n", dir+"."+name, fields[key])
	}
	fmt.Printf("%-32s %6d\n", "config fields total", total)
}

// plant writes a small module tree: a library package under internal/, a
// command using part of it, and a nested benchmark module. files maps
// slash paths to contents and overrides the defaults.
func plant(t *testing.T, files map[string]string) string {
	t.Helper()
	tree := map[string]string{
		"go.mod": "module m\n\ngo 1.22\n",
		"internal/lib/lib.go": `package lib

import "fmt"

// Namer is satisfied by T: a call through it never names T.Name.
type Namer interface{ Name() string }

type T struct{}

func New() *T { return &T{} }

func (*T) Name() string { return "t" }

// String satisfies fmt.Stringer, an interface of the standard library.
func (*T) String() string { return fmt.Sprint("t") }

func Used() {}

func Unused() {}

func BenchOnly() {}
`,
		"cmd/c/main.go": `package main

import "m/internal/lib"

func main() {
	var n lib.Namer = lib.New()
	_ = n.Name()
	lib.Used()
}
`,
		"bench/go.mod": "module m/bench\n\ngo 1.22\n",
		"bench/main.go": `package main

import "m/internal/lib"

func main() { lib.BenchOnly() }
`,
	}
	for name, body := range files {
		tree[name] = body
	}
	root := t.TempDir()
	for name, body := range tree {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func check(t *testing.T, root, allow string) []string {
	t.Helper()
	allowFile := ""
	if allow != "" {
		allowFile = "allow.txt"
		if err := os.WriteFile(filepath.Join(root, allowFile), []byte(allow), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := Check(root, allowFile)
	if err != nil {
		t.Fatal(err)
	}
	return r.Problems
}

func TestPlantedUnusedExportIsFlagged(t *testing.T) {
	t.Parallel()
	problems := check(t, plant(t, nil), "")
	if len(problems) != 1 || !strings.Contains(problems[0], "internal/lib Unused is exported but") {
		t.Fatalf("problems = %q, want exactly internal/lib Unused", problems)
	}
}

// TestUseFromDeadExportDoesNotCount: an export used only by another unused
// export is reported with it.
func TestUseFromDeadExportDoesNotCount(t *testing.T) {
	t.Parallel()
	root := plant(t, map[string]string{"internal/lib/more.go": `package lib

func Helper() {}

func Caller() { Helper() }
`})
	got := strings.Join(check(t, root, ""), "\n")
	for _, want := range []string{"internal/lib Helper ", "internal/lib Caller ", "internal/lib Unused "} {
		if !strings.Contains(got, want) {
			t.Errorf("problems miss %q:\n%s", want, got)
		}
	}
}

func TestInterfaceMethodIsNotFlagged(t *testing.T) {
	t.Parallel()
	got := strings.Join(check(t, plant(t, nil), ""), "\n")
	for _, method := range []string{"T.Name", "T.String"} {
		if strings.Contains(got, method) {
			t.Errorf("%s satisfies an interface but was flagged:\n%s", method, got)
		}
	}
}

func TestBenchUseCounts(t *testing.T) {
	t.Parallel()
	root := plant(t, nil)
	if got := strings.Join(check(t, root, ""), "\n"); strings.Contains(got, "BenchOnly") {
		t.Fatalf("a use in bench/ did not count:\n%s", got)
	}
	// The benchmark module's own tests are callers too.
	if err := os.WriteFile(filepath.Join(root, "bench/main.go"), []byte("package main\n\nfunc main() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "bench/main_test.go"), []byte(`package main

import (
	"testing"

	"m/internal/lib"
)

func TestBench(t *testing.T) { lib.BenchOnly() }
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(check(t, root, ""), "\n"); strings.Contains(got, "BenchOnly") {
		t.Fatalf("a use in bench/'s tests did not count:\n%s", got)
	}
}

// TestConfigFieldsCounted: the config-field count takes the exported
// fields of exported structs named Options or ending in Config, under
// internal/ only.
func TestConfigFieldsCounted(t *testing.T) {
	t.Parallel()
	root := plant(t, map[string]string{
		"internal/lib/config.go": `package lib

type Config struct {
	A, B   int
	hidden bool
}

type PipeConfig struct{ C int }

type Options struct {
	D string
	E []int
	F float64
}

type Settings struct{ G int }

type ModeConfig string

type privateConfig struct{ H int }
`,
		"cmd/c/config.go": "package main\n\ntype Config struct{ I int }\n",
	})
	r, err := Check(root, "")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"internal/lib Config": 2, "internal/lib PipeConfig": 1, "internal/lib Options": 3}
	if fmt.Sprint(r.ConfigFields) != fmt.Sprint(want) {
		t.Fatalf("config fields = %v, want %v", r.ConfigFields, want)
	}
}

func TestAllowEntryWithoutReasonFails(t *testing.T) {
	t.Parallel()
	problems := check(t, plant(t, nil), "internal/lib Unused\n")
	got := strings.Join(problems, "\n")
	if !strings.Contains(got, "allow.txt:1: entry needs a package dir, a name and a reason") {
		t.Fatalf("entry without a reason accepted:\n%s", got)
	}
	if !strings.Contains(got, "internal/lib Unused is exported but") {
		t.Fatalf("a malformed entry excused its identifier:\n%s", got)
	}
}

func TestStaleAllowEntryFails(t *testing.T) {
	t.Parallel()
	root := plant(t, nil)
	problems := check(t, root, `# comment lines and blank lines are skipped

internal/lib Unused kept for a later caller
internal/lib Used no longer needed: cmd/c calls it
internal/lib Gone deleted long ago
`)
	want := []string{
		"allow.txt:4: stale entry: internal/lib Used is used",
		"allow.txt:5: stale entry: internal/lib Gone is not an unused-export candidate",
	}
	if len(problems) != len(want) {
		t.Fatalf("problems = %q, want the two stale entries", problems)
	}
	for i, w := range want {
		if !strings.HasPrefix(problems[i], w) {
			t.Errorf("problem %d = %q, want prefix %q", i, problems[i], w)
		}
	}
}
