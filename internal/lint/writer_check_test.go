package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestServedModelWriters runs the writer check against this repository:
// no serving package writes a served model's relations itself.
func TestServedModelWriters(t *testing.T) {
	problems, err := CheckServedModelWriters("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestServedModelWritersDetectsCall seeds violations in a scratch tree:
// a mutator call in a checked package is reported, the same call in a
// test file or an allow-listed one is not.
func TestServedModelWritersDetectsCall(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range writerCheckDirs {
		write(dir+"/doc.go", "package p\n")
	}
	write("internal/serve/append.go", "package p\n\nfunc f(m interface{ RelateAnnot(a, b, c string) }) { m.RelateAnnot(\"d\", \"f\", \"v\") }\n")
	write("internal/serve/append_test.go", "package p\n\nfunc g(m interface{ Relate(a, b, c string) }) { m.Relate(\"d\", \"f\", \"v\") }\n")
	write("internal/segment/snapshot.go", "package p\n\nfunc h(r interface{ AdoptPairs(string) }) { r.AdoptPairs(\"f\") }\n")
	problems, err := CheckServedModelWriters(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "internal/serve/append.go: calls RelateAnnot") {
		t.Fatalf("want one problem in internal/serve/append.go, got %v", problems)
	}
}
