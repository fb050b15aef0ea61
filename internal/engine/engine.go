package engine

import (
	"context"
	"time"

	"raven/internal/data"
	"raven/internal/device"
	"raven/internal/ir"
	"raven/internal/opt"
	"raven/internal/relational"
)

// Result is the outcome of executing a plan: the result table, the real
// single-threaded wall time, and the profile-modeled reported time per
// docs/ARCHITECTURE.md, "Measured vs modeled time" (measured parallel
// work divided by DOP, plus boundary overheads).
type Result struct {
	Table *data.Table
	// Wall is the measured elapsed time of the operator drain at the
	// plan's DOP, admission wait excluded.
	Wall time.Duration
	// Reported is the cost-model time under the profile.
	Reported time.Duration
	// Ops holds per-operator statistics (pre-order).
	Ops []*relational.OpStats
	// Sessions is the number of ML runtime sessions checked out (one per
	// chain that actually executed predictions).
	Sessions int
	// ColdSessions is the subset of Sessions that had to be initialized
	// from scratch rather than reused warm from the engine-level pool.
	ColdSessions int
	// PredictBatches counts batches that crossed the UDF boundary.
	PredictBatches int64
	// BytesConverted counts bytes converted at the boundary.
	BytesConverted int64
	// PartitionsScanned counts partitions actually read (after pruning).
	PartitionsScanned int
	// Adaptive holds the mid-query re-optimization trace (breaker
	// observations and strategy switches) when Profile.Adaptive is set;
	// nil otherwise.
	Adaptive *opt.RuntimeStats
	// SpilledBytes is the total bytes this query's pipeline breakers
	// spilled to temp files under Profile.GlobalBudget (0 without a
	// budget).
	SpilledBytes int64
}

// Run lowers and executes an IR plan under the profile.
func Run(g *ir.Graph, cat *Catalog, prof Profile) (*Result, error) {
	return RunContext(context.Background(), g, cat, prof)
}

// RunContext lowers and executes an IR plan under the profile, with the
// context governing cancellation: after lowering, ctx is stamped onto the
// cancellation-aware operators (SetContext), so a done context surfaces
// as the query error within one batch/morsel boundary of work.
func RunContext(ctx context.Context, g *ir.Graph, cat *Catalog, prof Profile) (*Result, error) {
	var rs *opt.RuntimeStats
	if prof.Adaptive {
		rs = opt.NewRuntimeStats(prof.ReoptFactor)
	}
	root, err := lowerAdaptive(g, cat, prof, rs)
	if err != nil {
		return nil, err
	}
	relational.SetContext(ctx, root)
	// This query's breaker reservations draw from the shared budget, with
	// a floor derived from the admission cap so concurrent queries cannot
	// starve it entirely.
	mb := prof.GlobalBudget.QueryBudgetFor(prof.scheduler().AdmitCap())
	if mb != nil {
		// Cleanup runs on every exit — error, cancellation and panic
		// included — so spill temp files cannot outlive the query and the
		// query's global reservations are always returned.
		defer mb.Cleanup()
		relational.SetBudget(mb, root)
	}
	res, err := ExecuteContext(ctx, root, prof)
	if err != nil {
		return nil, err
	}
	res.Adaptive = rs
	if mb != nil {
		res.SpilledBytes = mb.SpilledBytes()
	}
	return res, nil
}

// Execute drains a physical plan and assembles the Result. Parallel plans
// pass admission control first: the scheduler bounds how many parallel
// queries are in flight at once, so morsel queue depth (and tail latency)
// stays bounded under overload. Admission is held by the query thread
// only — scheduler workers never admit — so it cannot deadlock with
// morsel scheduling.
func Execute(root Operator, prof Profile) (*Result, error) {
	return ExecuteContext(context.Background(), root, prof)
}

// ExecuteContext is Execute under a context: admission waits are
// cancelable (and bounded when the scheduler has an admit wait configured,
// surfacing sched.ErrOverloaded), the drain polls ctx per output batch,
// and the whole query-thread execution runs behind a panic boundary — a
// panic in any operator Open/Next/Close on this thread becomes the query's
// *relational.PanicError instead of taking down the process.
func ExecuteContext(ctx context.Context, root Operator, prof Profile) (res *Result, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if prof.ExecDOP > 1 {
		release, aerr := prof.scheduler().AdmitContext(ctx)
		if aerr != nil {
			return nil, aerr
		}
		defer release()
	}
	defer relational.RecoverPanic("query execution", &err)
	t0 := time.Now()
	table, err := relational.DrainContext(ctx, root)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	res = &Result{Table: table, Wall: wall}
	res.Ops = relational.CollectStats(root)
	res.Reported = reportedTime(root, prof, res)
	return res, nil
}

// reportedTime converts measured per-operator times into the modeled
// end-to-end time. Segments executed in real parallel (Exchange subtrees,
// present when Profile.ExecDOP > 1) are charged their measured parallel
// wall time directly; outside them, exclusive times of data-parallel
// operators are divided by the profile's modeled DOP and serial operators
// are charged fully. Boundary overheads (session init, per-batch UDF
// bridge, per-partition scheduling) are added from the profile constants
// in both regimes, divided by the parallelism that actually overlaps them
// (ExecDOP inside an Exchange, the modeled DOP elsewhere).
func reportedTime(root Operator, prof Profile, res *Result) time.Duration {
	dop := float64(prof.DOP)
	if dop < 1 {
		dop = 1
	}
	execDOP := float64(prof.ExecDOP)
	if execDOP < 1 {
		execDOP = 1
	}
	var totalNs float64
	var walk func(op Operator, inExchange bool)
	walk = func(op Operator, inExchange bool) {
		s := op.Stats()
		if ex, ok := op.(*relational.Exchange); ok {
			// Real morsel-driven execution: the exchange's wall time is
			// the measured parallel elapsed time of the whole segment.
			// The operators inside carry aggregate across-worker CPU time,
			// so they are walked for boundary accounting only. Simulated-GPU
			// DNN ops inside the exchange stand in for the device with host
			// compute: remove its elapsed share (aggregate worker compute
			// spread over the workers) so only the modeled device time —
			// added by the boundary walk below — is charged. An exchange
			// nested inside another exchange (a parallel hash-join build
			// side) ran during the outer exchange's Open and is already
			// inside the outer measured wall time, so only its boundary
			// items are accounted, not its elapsed time again.
			if !inExchange {
				wall := float64(ex.Stats().WallNs)
				// div is the parallelism the op's host compute ran at: ops
				// on the exchange chain spread across the workers, but a
				// serial join build subplan ran once during the exchange's
				// Open (a nested build-side exchange ran at full DOP again).
				var gpuWalk func(op Operator, div float64)
				gpuWalk = func(op Operator, div float64) {
					if gpu, ok := op.(*DNNOp); ok && gpu.Device.Kind == device.SimGPU {
						wall -= float64(gpu.ComputeNs) / div
					}
					if hj, ok := op.(*relational.HashJoin); ok {
						gpuWalk(hj.Left, div)
						if hj.Right != nil {
							bdiv := 1.0
							if _, ok := hj.Right.(*relational.Exchange); ok {
								bdiv = execDOP
							}
							gpuWalk(hj.Right, bdiv)
						}
						return
					}
					for _, c := range op.Children() {
						gpuWalk(c, div)
					}
				}
				gpuWalk(ex, execDOP)
				if wall < 0 {
					wall = 0
				}
				totalNs += wall
			}
			for _, c := range op.Children() {
				walk(c, true)
			}
			return
		}
		if !inExchange {
			excl := s.WallNs
			for _, c := range op.Children() {
				excl -= c.Stats().WallNs
			}
			if gpu, ok := op.(*DNNOp); ok && gpu.Device.Kind == device.SimGPU {
				// Simulated GPU: the host compute stands in for the device;
				// charge the modeled device time instead of the measured one.
				excl -= gpu.ComputeNs
			}
			if excl < 0 {
				excl = 0
			}
			work := float64(excl)
			if _, isPredict := op.(*PredictOp); isPredict && prof.PredictPenalty > 1 {
				work *= prof.PredictPenalty
			}
			if s.Parallel {
				totalNs += work / dop
			} else {
				totalNs += work
			}
		}
		bdop := dop
		if inExchange {
			bdop = execDOP
		}
		switch o := op.(type) {
		case *PredictOp:
			res.Sessions += o.Sessions
			res.ColdSessions += o.ColdSessions
			res.PredictBatches += s.Batches
			res.BytesConverted += o.BytesConverted
			initDiv := 1.0
			if inExchange {
				// Worker sessions initialize concurrently.
				initDiv = execDOP
			}
			totalNs += float64(o.Sessions) * float64(prof.SessionInit.Nanoseconds()) / initDiv
			totalNs += float64(s.Batches) * float64(prof.UDFBatchOverhead.Nanoseconds()) / bdop
			totalNs += float64(s.Rows) * float64(prof.PredictRowOverhead.Nanoseconds()) / bdop
		case *relational.Scan:
			parts := len(o.Table.Parts) - o.SkippedPartitions()
			if o.PartIndex >= 0 {
				parts = 1
			}
			res.PartitionsScanned += parts
			totalNs += float64(parts) * float64(prof.PartitionOverhead.Nanoseconds()) / bdop
		case *DNNOp:
			res.Sessions++
			res.PredictBatches += s.Batches
			res.BytesConverted += o.BytesConverted
			totalNs += float64(o.ModeledNs)
			totalNs += float64(prof.SessionInit.Nanoseconds())
		}
		for _, c := range op.Children() {
			walk(c, inExchange)
		}
	}
	walk(root, false)
	return time.Duration(totalNs)
}
