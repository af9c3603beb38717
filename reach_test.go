package repro_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptUnlinked names every non-test function outside package main and
// internal/conformance that no binary links, each with the reason it stays.
// A key is the import path, the receiver's type name if any, and the function
// name, joined by dots. TestEveryFunctionLinkedOrKept holds this list exact:
// an unlinked function missing from it fails the test, and so does an entry
// that is now linked or no longer exists.
var keptUnlinked = map[string]string{
	// Fault injection that conformance's chaos plans and the churn tests drive.
	"repro/internal/faults.FlowChurn.Start":       "churn tests drive live flow add/remove on a network",
	"repro/internal/faults.FlowChurn.addAndBurst": "churn tests drive live flow add/remove on a network",
	"repro/internal/faults.FlowChurn.tryRemove":   "churn tests drive live flow add/remove on a network",
	"repro/internal/faults.NewLossy":              "chaos plans put a lossy stage in front of the sink",
	"repro/internal/faults.Lossy.Deliver":         "chaos plans put a lossy stage in front of the sink",
	"repro/internal/faults.Lossy.drop":            "chaos plans put a lossy stage in front of the sink",
	"repro/internal/faults.Lossy.DropsByFlow":     "the chaos conservation audit reads it",
	"repro/internal/faults.Lossy.DropsByCause":    "the chaos conservation audit reads it",
	"repro/internal/faults.RandomOutages":         "chaos plans draw their link outages from it",
	"repro/internal/faults.ScheduleOutages":       "chaos plans schedule their link outages through it",
	"repro/internal/faults.linkFail":              "ScheduleOutages' event trampoline",
	"repro/internal/faults.linkRecover":           "ScheduleOutages' event trampoline",
	"repro/internal/sim.Link.Fail":                "link failure, the fault chaos plans inject",
	"repro/internal/sim.Link.Recover":             "link failure, the fault chaos plans inject",
	"repro/internal/sim.Link.Down":                "link failure, the fault chaos plans inject",
	"repro/internal/sim.Link.DropsFor":            "the chaos conservation audit reads it",
	"repro/internal/sim.Link.DropsByFlow":         "the chaos conservation audit reads it",
	"repro/internal/topo.Sharded.DropsByFlow":     "the churn tests account every churned frame with it",

	// Interface methods: the type must keep satisfying the interface even
	// though no binary calls this method through it.
	"repro/internal/server.ConstantRate.MeanRate":    "server.Process",
	"repro/internal/server.MarkovModulated.MeanRate": "server.Process",
	"repro/internal/server.PeriodicOnOff.MeanRate":   "server.Process",
	"repro/internal/server.Piecewise.MeanRate":       "server.Process",
	"repro/internal/server.RandomSlotted.MeanRate":   "server.Process",
	"repro/internal/faults.Modulated.MeanRate":       "server.Process",
	"repro/internal/sched.Ranked.SetCapacity":        "sched.Reconfigurable; rt and sfqsim assert it",
	"repro/internal/hier.Tree.SetCapacity":           "sched.Reconfigurable; rt and sfqsim assert it",
	"repro/internal/sched.ManualClock.Set":           "replay harnesses set the clock of a runtime",
	"repro/internal/rt.Runtime.SetQueueLimit":        "the only switch for the runtime's ErrShedding bound",
	"repro/internal/rt.Admitter.Queued":              "the admitter's queue-depth gauge beside Executing",
	"repro/internal/rt.Runtime.Close":                "runtime lifecycle; Close racing Wait/Finish is a planned hostile-input test",
	"repro/internal/rt.Runtime.Closed":               "runtime lifecycle; Close racing Wait/Finish is a planned hostile-input test",
	"repro/internal/sim.Link.PoolActive":             "failover and observer tests check packet recycling is on",
	"repro/internal/liveops.Swapper.Ops":             "tests check that a failover action fired",
	"repro/internal/hier.Tree.Sink":                  "reaches a sink class's discipline, e.g. EDD's AddFlowDeadline",
	"repro/internal/sched.EDD.AddFlowDeadline":       "Theorem 7's per-flow delay bound d_f; the Theorem 7 tests set it",
	"repro/internal/stats.TimeSeries.Last":           "the monitor's reference tests compare service curves through it",
	"repro/internal/stats.TimeSeries.Points":         "the monitor's reference tests compare service curves through it",
	"repro/internal/sched.FlowHeap.CheckSlots":       "invariant checker for the fuzzers",
	"repro/internal/sched.FlowSet.CheckSlots":        "invariant checker for the fuzzers",
	"repro/internal/sched.HeadSFQ.CheckSlots":        "invariant checker for the fuzzers",
	"repro/internal/sched.PIFO.CheckSlots":           "invariant checker for the fuzzers",

	// The paper's definitions and bounds that tests of other packages use
	// as oracles.
	"repro/internal/qos.SFQThroughputBound":     "Theorem 2; core's throughput test checks SFQ against it",
	"repro/internal/qos.EDDDelayBound":          "Theorem 7; the Delay EDD tests check lateness against it",
	"repro/internal/qos.EDDSchedulable":         "eq (67); the Delay EDD tests check schedulability with it",
	"repro/internal/server.FCParams.FCBound":    "Definition 1; the FC server tests check service against it",
	"repro/internal/server.EBFParams.TailBound": "Definition 2; the EBF server tests check tails against it",
	"repro/internal/server.ConstantRate.FC":     "Definition 1 parameters the Theorem tests build bounds from",
	"repro/internal/server.PeriodicOnOff.FC":    "Definition 1 parameters the Theorem tests build bounds from",
}

// reachExempt packages are test harnesses by design: nothing links them.
var reachExempt = map[string]bool{"repro/internal/conformance": true}

type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
}

// TestEveryFunctionLinkedOrKept builds every package main with inlining off,
// reads the repro symbols each binary links from `go tool nm`, and fails on
// any non-test function that none of them links unless keptUnlinked says why
// it stays.
func TestEveryFunctionLinkedOrKept(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary")
	}
	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var mains []string
	var libs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if p.Name == "main" {
			mains = append(mains, p.ImportPath)
		} else {
			libs = append(libs, p)
		}
	}

	bin := t.TempDir()
	build := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, mains...)...)
	if msg, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, msg)
	}
	linked := map[string]bool{}
	ents, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(mains) {
		t.Fatalf("%d binaries for %d main packages", len(ents), len(mains))
	}
	for _, e := range ents {
		nm, err := exec.Command("go", "tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		for sc := bufio.NewScanner(bytes.NewReader(nm)); sc.Scan(); {
			// "  addr T name": the name is all the text after the type
			// letter, since generic shape names contain spaces.
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") && strings.HasPrefix(f[2], "repro/") {
				linked[symbolKey(f[2])] = true
			}
		}
	}

	type fn struct {
		key   string
		lines int
	}
	var unreached []fn
	declared := map[string]bool{}
	total, unreachedLines := 0, 0
	fset := token.NewFileSet()
	for _, p := range libs {
		for _, name := range p.GoFiles {
			file, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || (fd.Recv == nil && fd.Name.Name == "init") {
					continue
				}
				key := p.ImportPath + "." + fd.Name.Name
				if fd.Recv != nil {
					key = p.ImportPath + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				declared[key] = true
				total++
				if linked[key] || reachExempt[p.ImportPath] {
					continue
				}
				// Body lines strictly between the braces; a one-line body has none.
				n := max(0, fset.Position(fd.Body.Rbrace).Line-fset.Position(fd.Body.Lbrace).Line-1)
				unreached = append(unreached, fn{key, n})
				unreachedLines += n
			}
		}
	}
	sort.Slice(unreached, func(i, j int) bool { return unreached[i].key < unreached[j].key })
	t.Logf("%d non-test functions outside package main; %d unlinked outside %v, %d body lines",
		total, len(unreached), sortedKeys(reachExempt), unreachedLines)
	for _, u := range unreached {
		if _, ok := keptUnlinked[u.key]; !ok {
			t.Errorf("%s (%d lines) is linked into no binary: delete it, call it, or add it to keptUnlinked with a reason", u.key, u.lines)
		}
	}
	for _, k := range sortedKeys(keptUnlinked) {
		switch {
		case !declared[k]:
			t.Errorf("keptUnlinked names %s, which no longer exists", k)
		case linked[k]:
			t.Errorf("keptUnlinked names %s, which a binary now links", k)
		}
	}
}

// symbolKey reduces a go tool nm text symbol to the key a FuncDecl gets:
// generic shapes, receiver parentheses and pointer stars, closure suffixes
// (.funcN, .gowrapN, .deferwrapN and their numbered nestings) and the -fm of
// method values are stripped.
func symbolKey(sym string) string {
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
	s := strings.TrimSuffix(b.String(), "-fm")
	slash := strings.LastIndexByte(s, '/')
	parts := strings.Split(s[slash+1:], ".")
	keep := 1 // the package name
	for _, p := range parts[1:] {
		if isClosurePart(p) {
			break
		}
		keep++
	}
	return s[:slash+1] + strings.Join(parts[:keep], ".")
}

func isClosurePart(p string) bool {
	for _, pre := range []string{"func", "gowrap", "deferwrap"} {
		if rest, ok := strings.CutPrefix(p, pre); ok && isDigits(rest) {
			return true
		}
	}
	return isDigits(p)
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// recvName is the type name of a method receiver: T for T, *T, T[K] and *T[K].
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

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
