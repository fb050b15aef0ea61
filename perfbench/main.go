// Command perfbench is the repository benchmark: it times prediction
// queries from SQL text in to CSV bytes out, exactly as the /query handler
// of `ravensql -serve` serves them (raven.Session.QueryContext followed by
// data.WriteCSV), on three workloads that load different layers. A traced
// run (-trace 1) repeats the workload through the layers' own entry points
// and reports per-layer times and counts. See README.md for the workloads,
// the metrics and the layer each metric belongs to.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload batch_score --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20
//	bash perfbench/run.sh --smoke
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
)

// heldOutSeed is never used while tuning the benchmark or a change: a
// later performance claim is confirmed on it after the fact.
const heldOutSeed = 9001

type config struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string // scratch directory for CSVs, spill files and span dumps
	nproc   int
	scale   float64 // input-size multiplier; 1 except in -smoke
	// corruptRefs flips a byte of every reference answer, so the
	// self-checks can see the correctness gate fire.
	corruptRefs bool
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one workload run; it is printed as the last
// line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// extra holds the numbers printed for people but not part of the
	// JSON contract (samples, unsupported percentiles' neighbours, the
	// error and SLO ratios, which are 0 on a healthy run).
	extra map[string]metric
}

func newReport() *report {
	return &report{Correct: true, Metrics: map[string]metric{}, extra: map[string]metric{}}
}

func (r *report) set(name string, v float64, unit string)  { r.Metrics[name] = metric{v, unit} }
func (r *report) note(name string, v float64, unit string) { r.extra[name] = metric{v, unit} }
func (r *report) count(attempted, failed int)              { r.Attempted += attempted; r.Failed += failed }
func (r *report) failIf(bad bool)                          { r.Correct = r.Correct && !bad }

// validName is the character set metric names are restricted to.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func main() {
	workload := flag.String("workload", "all", "batch_score, join_group_spill, point_serve or all")
	seed := flag.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	dir := flag.String("dir", filepath.Join(".bench_build", "work"), "scratch directory")
	smoke := flag.Bool("smoke", false, "run the self-checks on small inputs and exit")
	flag.Parse()

	nproc := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p > nproc {
		fatalf("GOMAXPROCS=%d exceeds nproc=%d; refusing to run", p, nproc)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	if err := os.RemoveAll(*dir); err != nil {
		fatalf("clearing %s: %v", *dir, err)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatalf("creating %s: %v", *dir, err)
	}
	defer os.RemoveAll(*dir)

	cfg := &config{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir, nproc: nproc, scale: 1}
	printEnv(cfg)
	if *smoke {
		if err := runSmoke(cfg); err != nil {
			os.RemoveAll(*dir)
			fatalf("smoke: %v", err)
		}
		fmt.Println(`{"smoke": "ok"}`)
		return
	}
	var names []string
	if *workload == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else {
		names = []string{*workload}
	}
	for _, name := range names {
		w := findWorkload(name)
		if w == nil {
			fatalf("unknown workload %q", name)
		}
		rep, err := runWorkload(w, cfg)
		if err != nil {
			os.RemoveAll(*dir)
			fatalf("%s: %v", name, err)
		}
		printReport(name, rep)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// printEnv records the environment every number depends on.
func printEnv(cfg *config) {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+dirty"
				}
			}
		}
	}
	fmt.Printf("# env nproc=%d gomaxprocs=%d go=%s commit=%s%s seed=%d held_out_seed=%d seconds=%g trace=%v\n",
		cfg.nproc, runtime.GOMAXPROCS(0), runtime.Version(), commit, modified,
		cfg.seed, heldOutSeed, cfg.seconds, cfg.trace)
}

// printReport prints every metric as "name value unit" for people, then
// the JSON result line.
func printReport(workload string, rep *report) {
	for n, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no NaN; a metric without a sample (all requests
			// failed) reads 0, and the failure count says why.
			fmt.Fprintf(os.Stderr, "perfbench: %s %s has no value\n", workload, n)
			rep.Metrics[n] = metric{0, m.Unit}
		}
	}
	var lines []string
	for n, m := range rep.Metrics {
		lines = append(lines, fmt.Sprintf("%s %s %s %s", workload, n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit))
	}
	for n, m := range rep.extra {
		lines = append(lines, fmt.Sprintf("%s %s %s %s (not gated)", workload, n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println("# " + l)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fatalf("encoding report: %v", err)
	}
	fmt.Println(string(b))
}
