package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// suite runs every workload: reps untraced runs and one traced run
// each, every run through child so that memory, GC state and lazy
// caches never leak from one run into the next.
type suite struct {
	o     opts
	reps  int
	child func(opts) (result, digests, error)
	out   io.Writer
}

// set is what one pass over all workloads measured.
type set struct {
	endToEnd map[string]map[string][]float64 // workload -> metric -> one value per rep
	perLayer map[string]map[string]float64   // workload -> metric
	digests  map[string]digests              // workload (untraced) and workload.points (traced)
	failed   int
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// execChild re-executes this binary for one run and parses what it
// printed: digest lines, then the result object on the last line.
func execChild(o opts) (result, digests, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{"-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(o.ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return result{}, nil, err
	}
	// A run that found failures exits non-zero but still reports.
	res, d, perr := parseRun(out)
	if perr != nil {
		return result{}, nil, fmt.Errorf("%s: %w (child: %v)", o.workload, perr, err)
	}
	return res, d, nil
}

func parseRun(out []byte) (result, digests, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, nil, fmt.Errorf("last line of output is not a result: %w", err)
	}
	d := digests{}
	for _, line := range lines[:len(lines)-1] {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "digest" {
			d[f[1]] = f[2]
		}
	}
	return res, d, nil
}

// runSet makes one pass over the named workloads: reps untraced runs
// each and then the traced one. Untraced reps of a workload must agree
// on every output digest.
func (s suite) runSet(names []string) (*set, error) {
	st := &set{
		endToEnd: map[string]map[string][]float64{},
		perLayer: map[string]map[string]float64{},
		digests:  map[string]digests{},
	}
	for _, name := range names {
		o := s.o
		o.workload = name
		st.endToEnd[name] = map[string][]float64{}
		for rep := 0; rep < s.reps; rep++ {
			logf("%s: run %d of %d", name, rep+1, s.reps)
			res, d, err := s.child(o)
			if err != nil {
				return nil, err
			}
			st.failed += res.Failed
			for metric, v := range res.Metrics {
				st.endToEnd[name][metric] = append(st.endToEnd[name][metric], v.Value)
			}
			if prev, ok := st.digests[name]; !ok {
				st.digests[name] = d
			} else if diff := prev.differ(d); diff != "" {
				logf("%s: run %d does not repeat run 1: %s", name, rep+1, diff)
				st.failed++
			}
		}
		logf("%s: traced run", name)
		o.trace = true
		res, d, err := s.child(o)
		if err != nil {
			return nil, err
		}
		st.failed += res.Failed
		st.perLayer[name] = map[string]float64{}
		for metric, v := range res.Metrics {
			st.perLayer[name][metric] = v.Value
		}
		st.digests[name+".points"] = d
	}
	return st, nil
}

// machine describes where the numbers were taken.
func (s suite) machine() string {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", s.o.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	cpu := "unknown CPU"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("commit %s, %s, %s, nproc %d, seed %d, %d reps of %g s",
		commit, runtime.Version(), cpu, runtime.NumCPU(), s.o.seed, s.reps, s.o.seconds)
}

// report runs one set and prints every metric by name with its unit.
func (s suite) report() (*set, error) {
	st, err := s.runSet(workloads)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(s.out, "# %s\n", s.machine())
	fmt.Fprintf(s.out, "\n# end to end: median, min and max of %d untraced runs\n", s.reps)
	fmt.Fprintf(s.out, "%-20s %-12s %-5s %14s %14s %14s %6s\n", "workload", "metric", "unit", "median", "min", "max", "bound")
	for _, name := range workloads {
		for _, m := range endToEnd {
			xs := st.endToEnd[name][m.Name]
			fmt.Fprintf(s.out, "%-20s %-12s %-5s %14.6g %14.6g %14.6g %5.0f%%\n",
				name, m.Name, m.Unit, median(xs), percentile(xs, 0), percentile(xs, 100), m.Bound*100)
		}
	}
	fmt.Fprintf(s.out, "\n# per layer: one traced run (0 where the workload does not exercise the layer)\n")
	fmt.Fprintf(s.out, "%-36s %-6s", "metric", "unit")
	for _, name := range workloads {
		fmt.Fprintf(s.out, " %19s", name)
	}
	fmt.Fprintln(s.out)
	for _, m := range perLayer {
		fmt.Fprintf(s.out, "%-36s %-6s", m.Name, m.Unit)
		for _, name := range workloads {
			fmt.Fprintf(s.out, " %19.6g", st.perLayer[name][m.Name])
		}
		fmt.Fprintln(s.out)
	}
	if st.failed > 0 {
		return st, fmt.Errorf("%d operations failed or mismatched their expected output", st.failed)
	}
	return st, nil
}

// exact lists the traced counts that, like the digests, must repeat
// exactly between two sets of the same code.
var exact = []string{"routing.calls", "traffic.calls", "fluid.sim_gap"}

// checkRepeat runs two full sets back to back and prints, for every
// end-to-end metric on every workload, both medians, how much worse the
// second is and the bound. It fails if any worsening exceeds its bound
// or anything that must repeat exactly does not.
func (s suite) checkRepeat() error {
	first, err := s.report()
	if err != nil {
		return err
	}
	second, err := s.report()
	if err != nil {
		return err
	}
	var bad []string
	fmt.Fprintf(s.out, "\n# repeat check: worse = how far the second median is on the wrong side of the first\n")
	fmt.Fprintf(s.out, "%-20s %-12s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, name := range workloads {
		for _, m := range endToEnd {
			a, b := median(first.endToEnd[name][m.Name]), median(second.endToEnd[name][m.Name])
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound || math.IsNaN(worse) {
				verdict = "  OVER"
				bad = append(bad, name+"/"+m.Name)
			}
			fmt.Fprintf(s.out, "%-20s %-12s %14.6g %14.6g %+7.1f%% %5.0f%%%s\n", name, m.Name, a, b, worse*100, m.Bound*100, verdict)
		}
		for _, m := range exact {
			if first.perLayer[name][m] != second.perLayer[name][m] {
				bad = append(bad, name+"/"+m)
			}
		}
	}
	for _, name := range sortedKeys(first.digests) {
		if diff := first.digests[name].differ(second.digests[name]); diff != "" {
			bad = append(bad, name+" digests ("+diff+")")
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("the two sets disagree on %s", strings.Join(bad, ", "))
	}
	fmt.Fprintln(s.out, "# the two sets agree within every bound; digests and counts repeat exactly")
	return nil
}

// writeGolden records the digests of one short set at seed 1 as the
// expected outputs. Run it only when a change is meant to alter what
// the simulator computes.
func (s suite) writeGolden() error {
	if s.o.seed != 1 || s.o.smoke {
		return errors.New("-write-digests records seed 1 at full size only")
	}
	s.reps, s.o.seconds = 1, 1         // one round: every round repeats the same outputs
	st, err := s.runSet(workloads[:3]) // serve_mixed has no digests
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st.digests); err != nil {
		return err
	}
	path := filepath.Join(s.o.root, "bench", "testdata", "digests.json")
	logf("writing %s; rebuild before the next run", path)
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
