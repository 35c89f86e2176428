package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// built holds the binaries the self-test runs: udtserve and udtree from the
// module under test, and the untraced and traced benchmark builds.
type built struct{ bin, out string }

func buildAll(t *testing.T) built {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	b := built{bin: filepath.Join(dir, "bin"), out: filepath.Join(dir, "out")}
	for _, c := range [][]string{
		{root, "build", "-o", filepath.Join(b.bin, "udtserve"), "./cmd/udtserve"},
		{root, "build", "-o", filepath.Join(b.bin, "udtree"), "./cmd/udtree"},
		{".", "build", "-o", filepath.Join(b.bin, "perfbench"), "."},
		{".", "build", "-tags", "perftrace", "-o", filepath.Join(b.bin, "perfbench-trace"), "."},
	} {
		cmd := exec.Command("go", c[1:]...)
		cmd.Dir = c[0]
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", c[1:], err, out)
		}
	}
	return b
}

// run executes one benchmark invocation and returns its detailed report
// and the decoded last line.
func (b built) run(t *testing.T, exe, workload string, seed int, seconds float64, trace int) (*report, map[string]any) {
	t.Helper()
	cmd := exec.Command(filepath.Join(b.bin, exe), "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--bin", b.bin, "--out", b.out)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v\nstdout:\n%s\nstderr:\n%s", exe, workload, err, stdout, stderr.Bytes())
	}
	var rep *report
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if rest, ok := bytes.CutPrefix(line, []byte("perfbench: report ")); ok {
			rep = new(report)
			if err := json.Unmarshal(rest, rep); err != nil {
				t.Fatalf("report line: %v", err)
			}
		}
		if len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var result map[string]any
	if err := json.Unmarshal(last, &result); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if rep == nil {
		t.Fatalf("no report line in\n%s", stdout)
	}
	return rep, result
}

// checkRun asserts the contract of one invocation: the last line has
// exactly the four keys, nothing failed, and every catalogued metric is
// there with its unit and a sample count.
func checkRun(t *testing.T, name string, rep *report, result map[string]any, defs []metricDef) {
	t.Helper()
	keys := strings.Join(sortedKeys(result), ",")
	if keys != "attempted,correct,failed,metrics" {
		t.Errorf("%s: last line keys %s", name, keys)
	}
	if result["correct"] != true || rep.Failed != 0 || rep.Attempted == 0 || len(rep.Problems) > 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", name, result["correct"], rep.Attempted, rep.Failed, rep.Problems)
	}
	metrics, _ := result["metrics"].(map[string]any)
	if len(metrics) != len(defs) {
		t.Errorf("%s: %d metrics on the last line, want %d", name, len(metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		if !ok || m.Unit != d.unit || m.Samples < 1 {
			t.Errorf("%s: metric %s = %+v, want unit %s and samples >= 1", name, d.name, m, d.unit)
		}
		if _, ok := metrics[d.name]; !ok {
			t.Errorf("%s: metric %s missing from the last line", name, d.name)
		}
	}
}

// TestShortRuns is the benchmark's self-test: a short run of every
// workload twice (exact counters and digests must repeat) and one short
// traced run (every per-layer metric present, client and server spans
// joined by request id).
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	b := buildAll(t)
	for _, w := range workloads {
		r1, res1 := b.run(t, "perfbench", w, 7, 1.5, 0)
		checkRun(t, w, r1, res1, endToEnd)
		r2, res2 := b.run(t, "perfbench", w, 7, 1.5, 0)
		checkRun(t, w, r2, res2, endToEnd)
		if len(r1.Digests) == 0 || !maps.Equal(r1.Digests, r2.Digests) {
			t.Errorf("%s: input digests differ between runs: %v vs %v", w, r1.Digests, r2.Digests)
		}
		if !maps.Equal(r1.Counters, r2.Counters) {
			t.Errorf("%s: exact counters drifted between runs: %v vs %v", w, r1.Counters, r2.Counters)
		}
	}

	rep, res := b.run(t, "perfbench-trace", "serve", 7, 3, 1)
	checkRun(t, "traced", rep, res, perLayer)
	if share := rep.Metrics["serve.trace_join_share"].Value; share < 0.99 {
		t.Errorf("only %.3f of traced serve requests joined their server record", share)
	}
	for _, w := range workloads {
		path := filepath.Join(b.out, "traces", w+"-seed7.json")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: trace file has no events (err %v)", path, err)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists and the serve
// constants it states in step with the code.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Why string }
	var doc struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(list string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d entries, code has %d", list, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, code has %s %s", list, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Name == "serve" {
			for _, s := range []string{fmt.Sprintf("open loop %g req/s", openRate), fmt.Sprintf("p90<=%g ms", kneeP90Ms)} {
				if !strings.Contains(w.Why, s) {
					t.Errorf("serve why %q does not state %q", w.Why, s)
				}
			}
		}
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("workloads %v, code has %v", names, workloads)
	}
}

// TestSelfTime checks the span arithmetic every per-layer number rests on:
// overlapping children are subtracted once.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.base.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("op", 0, 1, at(0), at(100))
	tr.add("a", root, 1, at(10), at(40))
	tr.add("b", root, 1, at(30), at(60))  // overlaps a by 10
	tr.add("c", root, 1, at(90), at(120)) // runs past the parent's end
	if got, want := tr.selfTime(root, tr.children()), 40*time.Millisecond; got != want {
		t.Errorf("self time %v, want %v", got, want)
	}
}
