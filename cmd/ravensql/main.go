// Command ravensql runs prediction queries over CSV tables and a model
// file — one-shot to stdout, or as a concurrent serving front end.
//
// One-shot usage:
//
//	ravensql -csv patients.csv -model risk.onnx.json \
//	  -query "SELECT d.id, p.score FROM PREDICT(MODEL = risk, DATA = patients AS d) WITH (score FLOAT) AS p"
//
// Serving usage:
//
//	ravensql -csv patients.csv -model risk.onnx.json -serve :8080 -parallelism 0
//
// The server answers POST /query (SQL in the body, CSV out) and GET
// /stats (plan cache and scheduler counters as JSON). All requests share
// one session: plans come from the plan cache, ML sessions from the
// catalog pool, and morsels from every in-flight query multiplex over the
// process-wide scheduler with fair round-robin scheduling and admission
// control.
//
// Serving robustness knobs:
//
//   - -query-timeout bounds each query's execution (default 30s); expiry
//     cancels the query at its next morsel/batch boundary and answers 408.
//   - A client disconnect cancels its query the same way (499 internally).
//   - -admit-wait bounds how long a parallel query waits for an admission
//     slot (default 1s); exhaustion answers 503 with Retry-After instead
//     of queueing without bound.
//   - -shutdown-timeout bounds the graceful drain of in-flight queries on
//     SIGINT/SIGTERM (default 5s).
//
// Errors are returned as a JSON envelope
// {"error":{"code","message","status"}} with the status also on the wire:
// 400 empty/bad request, 408 deadline, 422 query failure, 499 client
// cancel, 500 isolated engine fault, 503 overload.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"raven"
	"raven/internal/data"
)

type csvList []string

func (c *csvList) String() string     { return fmt.Sprint([]string(*c)) }
func (c *csvList) Set(v string) error { *c = append(*c, v); return nil }

func main() {
	var csvs csvList
	flag.Var(&csvs, "csv", "CSV table file (repeatable)")
	var (
		modelPath   = flag.String("model", "", "model file (.onnx.json)")
		query       = flag.String("query", "", "prediction query")
		explain     = flag.Bool("explain", false, "print the optimized plan instead of executing")
		noOpt       = flag.Bool("no-opt", false, "disable Raven optimizations")
		serveAddr   = flag.String("serve", "", "serve queries over HTTP on this address instead of one-shot mode")
		parallelism = flag.Int("parallelism", 1, "morsel parallelism per query (0 = all CPUs, 1 = serial)")

		queryTimeout    = flag.Duration("query-timeout", 30*time.Second, "per-query execution deadline in serve mode (0 = none)")
		shutdownTimeout = flag.Duration("shutdown-timeout", 5*time.Second, "graceful drain window on SIGINT/SIGTERM in serve mode")
		admitWait       = flag.Duration("admit-wait", time.Second, "max wait for a scheduler admission slot before 503 (0 = wait forever)")

		memBudget = flag.Int64("mem-budget", 0, "engine-global memory budget in bytes shared by all queries; breaker state beyond it spills to disk (0 = unbounded)")
		spillDir  = flag.String("spill-dir", "", "directory for spill files (default: OS temp dir)")
	)
	flag.Parse()
	if *modelPath == "" || len(csvs) == 0 || (*query == "" && *serveAddr == "") {
		fmt.Fprintln(os.Stderr, "ravensql: -csv, -model and one of -query/-serve are required")
		flag.Usage()
		os.Exit(2)
	}

	var options []raven.Option
	if *noOpt {
		options = append(options, raven.WithoutOptimizations())
	}
	if *parallelism != 1 {
		options = append(options, raven.WithParallelism(*parallelism))
	}
	options = append(options, raven.WithGlobalMemoryBudget(*memBudget, *spillDir))
	s := raven.NewSession(options...)
	for _, path := range csvs {
		if _, err := s.RegisterTableCSV(path); err != nil {
			fatal(err)
		}
	}
	if _, err := s.RegisterModelFile(*modelPath); err != nil {
		fatal(err)
	}
	if *serveAddr != "" {
		cfg := serveConfig{
			queryTimeout:    *queryTimeout,
			shutdownTimeout: *shutdownTimeout,
			admitWait:       *admitWait,
		}
		if err := serve(s, *serveAddr, cfg); err != nil {
			fatal(err)
		}
		return
	}
	if *explain {
		plan, rep, err := s.Explain(*query)
		if err != nil {
			fatal(err)
		}
		fmt.Println(plan)
		fmt.Println(rep.String())
		return
	}
	res, err := s.Query(*query)
	if err != nil {
		fatal(err)
	}
	if err := data.WriteCSV(res.Table, os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%d rows in %v (optimizations: %v)\n",
		res.Table.NumRows(), res.Wall, res.Report.Fired)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ravensql: %v\n", err)
	os.Exit(1)
}
