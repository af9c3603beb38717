package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestOutput pins what the example prints — the admission decisions and the runtime's served shares — to
// testdata/output.txt.
func TestOutput(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = stdout
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/output.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("output moved\n got:\n%s\nwant:\n%s", got, want)
	}
}
