// Command perfbench is the repository's benchmark. It prepares seeded
// inputs, runs one workload (train, score or serve) for a fixed time in a
// fresh process, checks every output, and prints the end-to-end metrics;
// with --trace 1 it instead runs a traced pass of every workload and
// prints the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through run.sh, which builds it and the
// udtserve/udtree binaries it drives:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, metrics and layers.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"
)

var workloads = []string{"train", "score", "serve"}

// deadline bounds a whole invocation, which must finish within 180 s.
const deadline = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding the udtserve and udtree binaries
	out      string // directory for work files and traces
	child    string // internal: run one workload pass in this process
	work     string // internal: the prepared inputs
}

func main() {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "train, score or serve")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run of every workload, reporting the per-layer metrics")
	fs.StringVar(&o.bin, "bin", ".bench_build/bin", "directory with the udtserve and udtree binaries")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for work files and trace output")
	fs.StringVar(&o.child, "child", "", "internal: run one workload pass")
	fs.StringVar(&o.work, "work", "", "internal: prepared input directory")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = trace == 1
	if o.child != "" {
		os.Exit(childMain(o))
	}
	if !slices.Contains(workloads, o.workload) || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload train|score|serve, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	os.Exit(parentMain(o))
}

// parentMain prepares the inputs, runs each workload pass in a child
// process of its own (so peak RSS and the heap are the pass's alone), and
// prints the result.
func parentMain(o options) int {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	if _, err := os.Stat(filepath.Join(o.bin, "udtserve")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v (build with run.sh)\n", err)
		return 1
	}
	work := filepath.Join(o.out, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	passes := []string{o.workload}
	defs := endToEnd
	if o.trace {
		passes, defs = workloads, perLayer
	}
	total := newReport(o.workload)
	t0 := time.Now()
	if err := prepare(ctx, work, o.bin, o.seed, passes, total); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: prepare:", err)
		return 1
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v prepared in %.1fs\n",
		o.workload, o.seed, o.seconds, o.trace, time.Since(t0).Seconds())
	for _, name := range sortedKeys(total.Digests) {
		fmt.Printf("perfbench: sha256 %s %s\n", total.Digests[name], name)
	}
	for _, w := range passes {
		rep, err := runChild(ctx, o, w, work)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			return 1
		}
		total.merge(rep)
	}
	total.checkCatalog(defs)
	fmt.Print(total.summary())
	detail, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("perfbench: report %s\n", detail)
	line, err := total.resultLine(defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !total.ok() {
		return 1
	}
	return 0
}

// runChild runs one workload pass in a fresh process and decodes the
// report it prints as its last line.
func runChild(ctx context.Context, o options, workload, work string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self,
		"--child", workload, "--work", work, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", boolArg(o.trace), "--bin", o.bin, "--out", o.out)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if l := sc.Bytes(); len(l) > 0 {
			last = append(last[:0], l...)
		}
	}
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return nil, errors.Join(fmt.Errorf("no report from the %s pass", workload), runErr)
	}
	if runErr != nil {
		rep.problem("pass exited: %v", runErr)
	}
	return &rep, nil
}

func boolArg(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// childMain runs one workload pass and prints its report as the last line.
func childMain(o options) int {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	steal0, total0, statErr := cpuTicks()
	var rep *report
	var err error
	switch o.child {
	case "train":
		rep, err = runTrain(ctx, o)
	case "score":
		rep, err = runScore(ctx, o)
	case "serve":
		rep, err = runServe(ctx, o)
	default:
		err = fmt.Errorf("unknown workload %q", o.child)
	}
	if rep == nil {
		rep = newReport(o.child)
	}
	if err != nil {
		rep.Failed++
		rep.problem("%v", err)
	}
	// The share of CPU time the hypervisor took while the pass ran: on a
	// shared VM it is what moves wall-clock figures between runs of the same
	// code, so every report carries it.
	if steal1, total1, err := cpuTicks(); err == nil && statErr == nil && total1 > total0 {
		rep.set("host.steal_pct."+o.child, "%", 100*(steal1-steal0)/(total1-total0), 1)
	}
	b, merr := json.Marshal(rep)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", merr)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func sortedKeys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }
