// Command bench is the repository's benchmark: four workloads, the
// end-to-end metrics a user of the simulator and of diam2serve would
// see, and per-layer metrics taken from outside each layer. README.md
// says why these workloads and how the metrics relate.
//
// One run, as the driver of BENCHMARK.json makes it:
//
//	go run ./bench --workload figs_sweep --seed 1 --seconds 25 --trace 0
//
// prints a JSON object as the last line of standard output: every
// end-to-end metric with --trace 0, every per-layer metric with
// --trace 1. Without --workload, bench runs every workload -reps times
// untraced and once traced, each run in a fresh child process, and
// prints every metric by name with its unit.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// workloads names the four workloads in the order they run.
var workloads = []string{"figs_sweep", "paper_point", "paper_point_sharded", "serve_mixed"}

// opts is one run's command line.
type opts struct {
	workload string
	seed     int64
	seconds  float64 // how long the untraced run measures
	trace    bool
	smoke    bool // shrink every workload to seconds in total; same code
	// root is the module root and outDir is bench/out under it, the one
	// place the benchmark writes: traces, temporary stores, the built
	// diam2serve.
	root   string
	outDir string
	ctx    context.Context
}

//go:embed testdata/digests.json
var goldenJSON []byte

// golden returns the recorded digests of one output set, or nil when
// none apply: they are recorded for seed 1 at full size only.
func (o opts) golden(name string) digests {
	if o.seed != 1 || o.smoke {
		return nil
	}
	var all map[string]digests
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		panic("bench: testdata/digests.json: " + err.Error())
	}
	return all[name]
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// moduleRoot walks up from the working directory to the diam2 module.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module diam2\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the diam2 module: run from the repository")
		}
		dir = parent
	}
}

// run executes one run of one workload in this process.
func run(o opts) (result, digests, error) {
	// Load is sized for two cores and never asks for more than there are.
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return result{}, nil, err
	}
	if o.workload == "serve_mixed" {
		return runServe(o, procs)
	}
	var w *simWorkload
	var err error
	switch o.workload {
	case "figs_sweep":
		w, err = newFigsSweep(o)
	case "paper_point":
		w, err = newPaperPoint(o, 1)
	case "paper_point_sharded":
		w, err = newPaperPoint(o, 2)
	default:
		err = fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return result{}, nil, err
	}
	return runSim(w, o)
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		o           = opts{ctx: ctx}
		trace       = fs.Int("trace", 0, "1 runs the traced, per-layer pass instead of the end-to-end one")
		reps        = fs.Int("reps", 3, "untraced runs per workload when running them all; the report gives median, min and max")
		checkRepeat = fs.Bool("check-repeat", false, "run two full sets and fail if their medians differ by more than a metric's bound")
		writeGolden = fs.Bool("write-digests", false, "with -seed 1: record the outputs' digests in bench/testdata/digests.json")
	)
	fs.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: all, each in a child process)")
	fs.Int64Var(&o.seed, "seed", 1, "the only source of randomness: load ladders, point seeds and the query sequence derive from it")
	fs.Float64Var(&o.seconds, "seconds", 25, "how long one untraced run measures")
	fs.BoolVar(&o.smoke, "smoke", false, "shrink every workload to a few seconds in total; same code paths")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace != 0
	root, err := moduleRoot()
	if err != nil {
		logf("%v", err)
		return 1
	}
	o.root, o.outDir = root, filepath.Join(root, "bench", "out")

	if o.workload != "" {
		res, d, err := run(o)
		if err != nil {
			logf("%s: %v", o.workload, err)
			return 1
		}
		return printRun(stdout, res, d)
	}
	s := suite{o: o, reps: *reps, child: execChild, out: stdout}
	switch {
	case *checkRepeat:
		err = s.checkRepeat()
	case *writeGolden:
		err = s.writeGolden()
	default:
		_, err = s.report()
	}
	if err != nil {
		logf("%v", err)
		return 1
	}
	return 0
}

// printRun writes a run's digests, one a line, then the result object
// as the last line. A run with failures exits non-zero.
func printRun(w io.Writer, res result, d digests) int {
	for _, name := range sortedKeys(d) {
		fmt.Fprintf(w, "digest %s %s\n", name, d[name])
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
