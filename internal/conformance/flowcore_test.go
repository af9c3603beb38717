package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// This file pins the service order of every registered discipline across
// the flow-indexed scheduling core refactor: the golden digests in
// testdata/flowcore_digests.json were recorded with the pre-refactor
// packet-level heaps, and the refactored schedulers must reproduce them
// bit for bit. Three regimes are pinned per discipline:
//
//   - healthy: the plain conformance workloads (2–4 flows) on a constant
//     rate server;
//   - wide: RandomWide workloads with many backlogged flows, the regime
//     where the flow heap's tie-breaking across equal head tags carries
//     the schedule;
//   - chaos: the faulted replay digests of the chaos matrix, covering
//     server stalls, outages, and loss on top of the schedule.
//
// Regenerate with UPDATE_FLOWCORE_DIGESTS=1 go test ./internal/conformance
// -run TestFlowCoreDigestPin — but only when an intentional semantic
// change is being made; the whole point of the file is that refactors do
// not get to do that silently.

const (
	flowCoreHealthySeeds = 30
	flowCoreWideSeeds    = 12
	flowCoreChaosSeeds   = 20
	flowCoreGoldenPath   = "testdata/flowcore_digests.json"
)

// replayDigest summarizes a healthy run for order comparison: the full
// dequeue sequence with timestamps and tags, plus per-flow sink totals.
func flowReplayDigest(tr *Trace, sink interface {
	Count(flow int) int64
	Bytes(flow int) float64
}, w Workload) string {
	var b strings.Builder
	for _, st := range tr.Deq {
		fmt.Fprintf(&b, "d %d %d %.9g %.9g %.9g %.9g\n",
			st.P.Flow, st.P.Seq, st.P.Length, st.Now, st.P.VirtualStart, st.P.VirtualFinish)
	}
	for _, f := range w.Flows {
		fmt.Fprintf(&b, "s %d %d %.9g\n", f.Flow, sink.Count(f.Flow), sink.Bytes(f.Flow))
	}
	return b.String()
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// healthyFlowDigest runs s over the seed's plain workload and digests it.
func healthyFlowDigest(s sut, seed int64) (string, error) {
	rng := rand.New(rand.NewSource(seed))
	kind := s.kinds[int(seed)%len(s.kinds)]
	w := Random(rng, kind, pktsPerFlow)
	tr, res, err := Run(s.make(w), w, nil)
	if err != nil {
		return "", err
	}
	return sha(flowReplayDigest(tr, res.Sink, w)), nil
}

// wideFlowDigest is healthyFlowDigest over a many-flow workload.
func wideFlowDigest(s sut, seed int64) (string, error) {
	rng := rand.New(rand.NewSource(seed))
	kind := s.kinds[int(seed)%len(s.kinds)]
	w := RandomWide(rng, kind, 6, 24+rng.Intn(17))
	tr, res, err := Run(s.make(w), w, nil)
	if err != nil {
		return "", err
	}
	return sha(flowReplayDigest(tr, res.Sink, w)), nil
}

// chaosFlowDigest reuses the chaos matrix cell (fault plan + conservation
// audit + digest).
func chaosFlowDigest(s sut, seed int64) (string, error) {
	d, err := ChaosReplay(s.make, s.kinds, pktsPerFlow, seed)
	if err != nil {
		return "", err
	}
	return sha(d), nil
}

type flowCoreGolden struct {
	Healthy map[string][]string `json:"healthy"`
	Wide    map[string][]string `json:"wide"`
	Chaos   map[string][]string `json:"chaos"`
}

func collectFlowCoreDigests(t *testing.T) flowCoreGolden {
	t.Helper()
	g := flowCoreGolden{
		Healthy: make(map[string][]string),
		Wide:    make(map[string][]string),
		Chaos:   make(map[string][]string),
	}
	for _, s := range suts() {
		if _, retired := retiredNames[s.name]; retired {
			continue // pinned under its discipline's name
		}
		for seed := int64(0); seed < flowCoreHealthySeeds; seed++ {
			d, err := healthyFlowDigest(s, seed)
			if err != nil {
				t.Fatalf("%s healthy seed %d: %v", s.name, seed, err)
			}
			g.Healthy[s.name] = append(g.Healthy[s.name], d)
		}
		for seed := int64(0); seed < flowCoreWideSeeds; seed++ {
			d, err := wideFlowDigest(s, seed)
			if err != nil {
				t.Fatalf("%s wide seed %d: %v", s.name, seed, err)
			}
			g.Wide[s.name] = append(g.Wide[s.name], d)
		}
		for seed := int64(0); seed < flowCoreChaosSeeds; seed++ {
			d, err := chaosFlowDigest(s, seed)
			if err != nil {
				t.Fatalf("%s chaos seed %d: %v", s.name, seed, err)
			}
			g.Chaos[s.name] = append(g.Chaos[s.name], d)
		}
	}
	return g
}

// TestFlowCoreDigestPin replays every pinned (discipline, regime, seed)
// cell and compares the digest with the committed pre-refactor value.
func TestFlowCoreDigestPin(t *testing.T) {
	if testing.Short() {
		t.Skip("digest pin is covered by the full run")
	}
	got := collectFlowCoreDigests(t)
	if os.Getenv("UPDATE_FLOWCORE_DIGESTS") != "" {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(flowCoreGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(flowCoreGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", flowCoreGoldenPath)
		return
	}
	buf, err := os.ReadFile(flowCoreGoldenPath)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_FLOWCORE_DIGESTS=1 to create): %v", err)
	}
	var want flowCoreGolden
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	compare := func(regime string, want, got map[string][]string) {
		for name, wd := range want {
			gd, ok := got[name]
			if !ok {
				t.Errorf("%s: discipline %q pinned but not run (sut table changed?)", regime, name)
				continue
			}
			if len(gd) != len(wd) {
				t.Errorf("%s/%s: %d digests, want %d", regime, name, len(gd), len(wd))
				continue
			}
			for i := range wd {
				if gd[i] != wd[i] {
					t.Errorf("%s/%s seed %d: service order diverged from the pre-refactor pin", regime, name, i)
				}
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: discipline %q not pinned; regenerate the golden file", regime, name)
			}
		}
	}
	compare("healthy", want.Healthy, got.Healthy)
	compare("wide", want.Wide, got.Wide)
	compare("chaos", want.Chaos, got.Chaos)
}
