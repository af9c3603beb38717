package main

import (
	"errors"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// TestScaleFlag holds -scale to finite values > 0. A refused value must stop
// the command with exit status 2 and a usage line before any experiment
// runs or -dump writes a file.
func TestScaleFlag(t *testing.T) {
	if args := os.Getenv("EXPERIMENTS_TEST_ARGS"); args != "" {
		os.Args = append([]string{"experiments"}, strings.Fields(args)...)
		main()
		return
	}
	for _, tc := range []struct {
		arg string
		ok  bool
	}{
		{"0", false}, {"-1", false}, {"NaN", false}, {"Inf", false}, {"-Inf", false},
		{"0.02", true}, {"1", true},
	} {
		v, err := strconv.ParseFloat(tc.arg, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkScale(v); (err == nil) != tc.ok {
			t.Errorf("checkScale(%s) = %v, want ok=%v", tc.arg, err, tc.ok)
		}
		if tc.ok {
			continue
		}
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run=^TestScaleFlag$")
		cmd.Env = append(os.Environ(), "EXPERIMENTS_TEST_ARGS=-scale="+tc.arg+" -dump "+dir+" fig1b")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-scale=%s: err %v, want exit status 2\n%s", tc.arg, err, out)
		}
		if !strings.Contains(string(out), "usage:") || strings.Contains(string(out), "==") {
			t.Errorf("-scale=%s: want a usage line and no experiment output, got\n%s", tc.arg, out)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			t.Errorf("-scale=%s: -dump wrote %d files", tc.arg, len(ents))
		}
	}
}
