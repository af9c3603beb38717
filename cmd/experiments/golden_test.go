package main

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// floatRe tokenizes every number in the experiment reports so the golden
// comparison can hold the prose/skeleton to an exact match while allowing
// numeric values a small tolerance (guarding against cross-platform
// floating-point formatting drift without hiding real regressions).
var floatRe = regexp.MustCompile(`-?\d+(\.\d+)?([eE][+-]?\d+)?`)

func normalize(s string) (skeleton string, nums []float64) {
	skeleton = floatRe.ReplaceAllStringFunc(s, func(m string) string {
		v, err := strconv.ParseFloat(m, 64)
		if err != nil {
			return m
		}
		nums = append(nums, v)
		return "#"
	})
	return skeleton, nums
}

// TestGoldenExperimentsOutput pins `go run ./cmd/experiments` (default
// scale/seed, full paper order) to docs/experiments_full_output.txt. Every
// experiment is deterministic given its seed, so any diff here means a
// behavioural change in a scheduler, source, or bound — regenerate the
// golden with `go run ./cmd/experiments > docs/experiments_full_output.txt`
// only after confirming the shift is intended.
func TestGoldenExperimentsOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite takes several seconds")
	}
	want, err := os.ReadFile("../../docs/experiments_full_output.txt")
	if err != nil {
		t.Fatal(err)
	}

	var got strings.Builder
	runners, order := runnerTable(1.0, 1)
	for _, id := range order {
		got.WriteString(runners[id]().String())
		got.WriteString("\n")
	}

	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimRight(got.String(), "\n"), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("output has %d lines, golden has %d", len(gotLines), len(wantLines))
	}
	const relTol = 1e-6
	for i := range wantLines {
		wantSkel, wantNums := normalize(wantLines[i])
		gotSkel, gotNums := normalize(gotLines[i])
		if wantSkel != gotSkel {
			t.Errorf("line %d skeleton changed:\n  got:    %s\n  golden: %s", i+1, gotLines[i], wantLines[i])
			continue
		}
		for j := range wantNums {
			diff := gotNums[j] - wantNums[j]
			scale := 1.0
			if a := wantNums[j]; a > 1 || a < -1 {
				scale = a
				if scale < 0 {
					scale = -scale
				}
			}
			if diff < 0 {
				diff = -diff
			}
			if diff > relTol*scale {
				t.Errorf("line %d value %d: got %v, golden %v\n  got:    %s\n  golden: %s",
					i+1, j+1, gotNums[j], wantNums[j], gotLines[i], wantLines[i])
			}
		}
	}
	if t.Failed() {
		t.Log("if the change is intended: go run ./cmd/experiments > docs/experiments_full_output.txt")
	}
}

// TestRunnerTableCoversOrder keeps the id list and registry in sync.
func TestRunnerTableCoversOrder(t *testing.T) {
	runners, order := runnerTable(1.0, 1)
	if len(runners) != len(order) {
		t.Fatalf("registry has %d runners, order lists %d", len(runners), len(order))
	}
	for _, id := range order {
		if runners[id] == nil {
			t.Fatalf("order lists %q but the registry has no such runner", id)
		}
	}
}

// TestAllRunsAndRenders runs every registered experiment at a small scale:
// each renders its id and at least one row, and reports at least one metric.
func TestAllRunsAndRenders(t *testing.T) {
	runners, order := runnerTable(0.02, 1)
	if len(order) != 23 {
		t.Fatalf("order lists %d experiments", len(order))
	}
	for _, id := range order {
		r := runners[id]()
		if r.ID != id {
			t.Errorf("runner %q returned result %q", id, r.ID)
		}
		if s := r.String(); !strings.Contains(s, r.ID) || len(r.Lines) == 0 {
			t.Errorf("%s renders poorly", r.ID)
		}
		if len(r.Got) == 0 {
			t.Errorf("%s has no metrics", r.ID)
		}
	}
}
