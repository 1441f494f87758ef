package lint

import (
	"os"
	"path/filepath"
	"slices"
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

// seedTree writes a scratch module tree holding every package of dirs
// and the given files, and returns its root.
func seedTree(t *testing.T, dirs []string, files map[string]string) string {
	t.Helper()
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
	for _, dir := range dirs {
		write(dir+"/doc.go", "package p\n")
	}
	for rel, src := range files {
		write(rel, src)
	}
	return root
}

// checkSeeded runs the writer check over a scratch tree holding every
// checked package and the given files.
func checkSeeded(t *testing.T, files map[string]string) []string {
	t.Helper()
	problems, err := CheckServedModelWriters(seedTree(t, writerCheckDirs, files))
	if err != nil {
		t.Fatal(err)
	}
	return problems
}

// TestServedModelWritersDetectsCall seeds violations in a scratch tree:
// a mutator call in a checked package is reported, the same call in a
// test file or an allow-listed one is not.
func TestServedModelWritersDetectsCall(t *testing.T) {
	problems := checkSeeded(t, map[string]string{
		"internal/serve/append.go":      "package p\n\nfunc f(m interface{ RelateAnnot(a, b, c string) }) { m.RelateAnnot(\"d\", \"f\", \"v\") }\n",
		"internal/serve/append_test.go": "package p\n\nfunc g(m interface{ Relate(a, b, c string) }) { m.Relate(\"d\", \"f\", \"v\") }\n",
		"internal/segment/snapshot.go":  "package p\n\nfunc h(r interface{ AdoptPairs(string) }) { r.AdoptPairs(\"f\") }\n",
	})
	if len(problems) != 1 || !strings.Contains(problems[0], "internal/serve/append.go: calls RelateAnnot") {
		t.Fatalf("want one problem in internal/serve/append.go, got %v", problems)
	}
}

// TestServedModelWritersDetectsFactWrites seeds one call of each writer
// of a model's facts — the fact set's, the dictionary's, a relation's add
// by dense id, an insert and a relation swap or re-key — in a checked
// package: each is reported, and the snapshot restore's own calls in its
// allow-listed files are not, nor is a buffer's Grow.
func TestServedModelWritersDetectsFactWrites(t *testing.T) {
	names := []string{"AddFact", "AddDense", "AddDenseAnnot", "InsertFact", "SetRelation", "Rekey", "Intern", "InternAll"}
	files := map[string]string{
		"internal/segment/store.go":    "package p\n\nfunc r(m interface{ AddDense(); SetRelation() }) { m.AddDense(); m.SetRelation() }\n",
		"internal/segment/snapshot.go": "package p\n\nfunc s(d interface{ InternAll() }) { d.InternAll() }\n",
		"internal/plan/buf.go":         "package p\n\nimport \"strings\"\n\nfunc b() { var sb strings.Builder; sb.Grow(8) }\n",
	}
	for _, name := range names {
		files["internal/plan/"+strings.ToLower(name)+".go"] = "package p\n\nfunc f(m interface{ " + name + "() }) { m." + name + "() }\n"
	}
	problems := checkSeeded(t, files)
	if len(problems) != len(names) {
		t.Fatalf("want %d problems, got %v", len(names), problems)
	}
	for _, name := range names {
		if !slices.ContainsFunc(problems, func(p string) bool {
			return strings.HasPrefix(p, "internal/plan/"+strings.ToLower(name)+".go: calls "+name+":")
		}) {
			t.Errorf("the seeded %s call is not reported: %v", name, problems)
		}
	}
}

// TestServedDimensionWriters runs the dimension check against this
// repository: no serving package, the engine included, writes a dimension.
func TestServedDimensionWriters(t *testing.T) {
	problems, err := CheckServedDimensionWriters("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestServedDimensionWritersDetectsCall seeds one call of each dimension
// mutator, each in a checked package of its own: every one is reported,
// and the same call in a test file or an unchecked package is not.
func TestServedDimensionWritersDetectsCall(t *testing.T) {
	names := []string{"AddValue", "AddValueAnnot", "RemoveValue", "AddEdge", "AddEdgeAnnot", "AddRepresentation"}
	files := map[string]string{}
	checked := func(k int) string {
		return dimensionCheckDirs[k%len(dimensionCheckDirs)] + "/" + strings.ToLower(names[k]) + ".go"
	}
	for k, name := range names {
		call := "package p\n\nfunc f(d interface{ " + name + "() }) { d." + name + "() }\n"
		files[checked(k)] = call
		files[strings.TrimSuffix(checked(k), ".go")+"_test.go"] = call
		files["internal/casestudy/"+strings.ToLower(name)+".go"] = call
	}
	problems, err := CheckServedDimensionWriters(seedTree(t, dimensionCheckDirs, files))
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != len(names) {
		t.Fatalf("want %d problems, got %v", len(names), problems)
	}
	for k, name := range names {
		if !slices.ContainsFunc(problems, func(p string) bool { return strings.HasPrefix(p, checked(k)+": calls "+name+":") }) {
			t.Errorf("the seeded %s call in %s is not reported: %v", name, checked(k), problems)
		}
	}
}
