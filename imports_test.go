package repro_test

import (
	"os/exec"
	"strings"
	"testing"
)

// liveStatePackages write and read the live-state formats (scheduler
// snapshots and the liveops envelope) through internal/statecodec.
var liveStatePackages = []string{"./internal/sched", "./internal/hier", "./internal/liveops", "./internal/statecodec"}

// TestLiveStateWithoutEncodingJSON keeps reflection out of the snapshot
// path: no non-test file of the live-state packages may import
// encoding/json. Their tests keep it, as the reference the codec is held
// to.
func TestLiveStateWithoutEncodingJSON(t *testing.T) {
	args := append([]string{"list", "-f", `{{.ImportPath}} {{join .Imports " "}}`}, liveStatePackages...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != len(liveStatePackages) {
		t.Fatalf("go list printed %d packages, want %d:\n%s", len(lines), len(liveStatePackages), out)
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		for _, imp := range fields[1:] {
			if imp == "encoding/json" {
				t.Errorf("%s imports encoding/json outside its tests; write and read state through internal/statecodec", fields[0])
			}
		}
	}
}
