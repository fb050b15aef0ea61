package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"raven"
	"raven/internal/data"
	"raven/internal/engine"
	"raven/internal/ir"
	"raven/internal/mlruntime"
	"raven/internal/opt"
	"raven/internal/relational"
	"raven/internal/sched"
	"raven/internal/sqlparse"
	"raven/internal/strategy"
)

// The traced run. It first runs the workload on the real session, as the
// end-to-end run does, for half the seconds; then it runs the same
// schedule through a mirror of the session's query path, timing each call
// into a layer's public function as a span. Every span is recorded from
// this file: the program itself carries no tracing. Per-operator busy
// times come from engine.Result.Ops as the engine reports them:
// inclusive of the operator's children and summed over exchange workers,
// never with children subtracted (see README.md).

// unattributedTolerance is the share of traced end-to-end time the phase
// spans may leave unaccounted for before the breakdown is not trusted.
const unattributedTolerance = 0.05

// sessionPlanCacheSize mirrors the session's default plan-cache capacity.
const sessionPlanCacheSize = 256

// Span names, one per layer boundary the traced path crosses.
const (
	spanQuery    = "query" // SQL text in to CSV bytes out; parent of the rest
	spanLookup   = "raven.plan_lookup"
	spanParse    = "sqlparse.parse_plan"
	spanOptimize = "opt.optimize"
	spanStore    = "raven.plan_store"
	spanLower    = "engine.lower"
	spanRun      = "engine.run"
	spanWrite    = "data.write_csv"
)

// planningSpans are the spans that turn SQL text into an executable plan.
var planningSpans = []string{spanLookup, spanParse, spanOptimize, spanStore, spanLower}

// span is one timed call. Spans of one query share its id; every span but
// the query's own has the query span as parent.
type span struct {
	Query  int64  `json:"query"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	Dur    int64  `json:"dur_ns"`
}

// record is one traced query.
type record struct {
	spans    []span
	planned  bool
	rules    int
	ops      []*relational.OpStats
	spilled  int64
	csvBytes int
	warm     bool
}

func (r *record) dur(name string) time.Duration {
	var d int64
	for _, s := range r.spans {
		if s.Name == name {
			d += s.Dur
		}
	}
	return time.Duration(d)
}

// busy sums the inclusive busy time of the operators whose name starts
// with one of the prefixes.
func (r *record) busy(prefixes ...string) time.Duration {
	var ns int64
	for _, op := range r.ops {
		for _, p := range prefixes {
			if strings.HasPrefix(op.Name, p) {
				ns += op.WallNs
				break
			}
		}
	}
	return time.Duration(ns)
}

// mirror re-issues the session's query path call by call:
// raven.NormalizeSQL and a plan cache with the session's key, capacity and
// FIFO eviction; sqlparse.ParseAndPlan and opt.Optimizer.Optimize on a
// miss; engine.Lower with the context and memory budget attached as
// engine.RunContext attaches them; engine.ExecuteContext; data.WriteCSV.
type mirror struct {
	cat  *engine.Catalog
	prof engine.Profile
	opts opt.Options
	// chunked is the chunk-backed fact table, when the fact table is
	// registered chunked.
	chunked *data.ChunkedTable

	mu    sync.Mutex
	plans map[string]*mirrorPlan
	order []string
	t0    time.Time
	ids   atomic.Int64
	recs  []*record
}

type mirrorPlan struct {
	g   *ir.Graph
	rep *opt.Report
}

// newMirror registers the inputs as the workload's session registers
// them, under the session's profile and optimizer options at the given
// degree of parallelism.
func newMirror(in *inputs, dop int) (*mirror, error) {
	m := &mirror{cat: engine.NewCatalog(), prof: engine.Local, opts: opt.DefaultOptions(),
		plans: map[string]*mirrorPlan{}, t0: time.Now()}
	m.opts.Strategy = strategy.CalibratedRule{}
	m.opts.ExecDOP, m.prof.ExecDOP = dop, dop
	if in.budget > 0 {
		m.prof.GlobalBudget = relational.NewGlobalBudget(in.budget, in.spillDir)
	}
	for _, t := range in.tables {
		if in.csvPaths == nil {
			m.cat.RegisterTable(t)
		}
	}
	for _, p := range in.csvPaths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		ct, err := data.ReadCSVChunked(strings.TrimSuffix(filepath.Base(p), ".csv"), f, 0)
		f.Close()
		if err != nil {
			return nil, err
		}
		if ct.NumRows() < raven.DefaultChunkRegisterRows {
			t, err := ct.Decode()
			if err != nil {
				return nil, err
			}
			m.cat.RegisterTable(t)
			continue
		}
		if err := m.cat.RegisterChunked(ct); err != nil {
			return nil, err
		}
		if m.chunked == nil {
			m.chunked = ct
		}
	}
	return m, m.cat.RegisterModel(in.pipe)
}

func (m *mirror) lookup(norm string) *mirrorPlan {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.plans[norm]
}

func (m *mirror) store(norm string, p *mirrorPlan) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.plans[norm]; !ok {
		m.order = append(m.order, norm)
	}
	m.plans[norm] = p
	for len(m.plans) > sessionPlanCacheSize {
		delete(m.plans, m.order[0])
		m.order = m.order[1:]
	}
}

// query runs sql from text to CSV bytes in buf, recording its spans.
func (m *mirror) query(ctx context.Context, sql string, buf *bytes.Buffer, warm bool) error {
	id := m.ids.Add(1)
	rec := &record{warm: warm}
	mark := func(name string, from time.Time) time.Time {
		now := time.Now()
		s := span{Query: id, Name: name, Start: from.Sub(m.t0).Nanoseconds(), Dur: now.Sub(from).Nanoseconds()}
		if name != spanQuery {
			s.Parent = spanQuery
		}
		rec.spans = append(rec.spans, s)
		return now
	}
	begin := time.Now()
	norm := raven.NormalizeSQL(sql)
	p := m.lookup(norm)
	t := mark(spanLookup, begin)
	if p == nil {
		g, err := sqlparse.ParseAndPlan(norm, m.cat)
		if err != nil {
			return err
		}
		t = mark(spanParse, t)
		og, rep, err := opt.New(m.cat, m.opts).Optimize(g)
		if err != nil {
			return err
		}
		t = mark(spanOptimize, t)
		p = &mirrorPlan{g: og, rep: rep}
		// The session renders the plan text into its cache entry.
		_ = og.Explain()
		m.store(norm, p)
		t = mark(spanStore, t)
		rec.planned, rec.rules = true, len(rep.Fired)
	}
	res, err := m.execute(ctx, p.g, m.prof, mark, t)
	if err != nil {
		return err
	}
	t = time.Now()
	buf.Reset()
	if err := data.WriteCSV(res.Table, buf); err != nil {
		return err
	}
	mark(spanWrite, t)
	mark(spanQuery, begin)
	rec.ops, rec.spilled, rec.csvBytes = res.Ops, res.SpilledBytes, buf.Len()
	m.mu.Lock()
	m.recs = append(m.recs, rec)
	m.mu.Unlock()
	return nil
}

// execute is engine.RunContext (for a non-adaptive profile) split at the
// lowering/execution boundary; mark records a span ending now and returns
// now.
func (m *mirror) execute(ctx context.Context, g *ir.Graph, prof engine.Profile,
	mark func(string, time.Time) time.Time, t time.Time) (*engine.Result, error) {
	root, err := engine.Lower(g, m.cat, prof)
	if err != nil {
		return nil, err
	}
	relational.SetContext(ctx, root)
	var mb *relational.MemBudget
	if prof.GlobalBudget != nil {
		admit := sched.Default().AdmitCap()
		if prof.Sched != nil {
			admit = prof.Sched.AdmitCap()
		}
		mb = prof.GlobalBudget.QueryBudgetFor(admit)
		relational.SetBudget(mb, root)
	}
	t = mark(spanLower, t)
	res, err := engine.ExecuteContext(ctx, root, prof)
	if mb != nil {
		if err == nil {
			res.SpilledBytes = mb.SpilledBytes()
		}
		mb.Cleanup()
	}
	mark(spanRun, t)
	return res, err
}

// tracedRun is the -trace 1 run; it fills rep with the per-layer metrics.
func tracedRun(w *workload, cfg *config, in *inputs, warm, timed []request, check checker, rep *report) error {
	seconds := cfg.seconds / 2

	// Untraced: the real session, for the overhead baseline and the
	// counters the session exposes.
	var cold, queries atomic.Int64
	exec := func(ctx context.Context, sql string, buf *bytes.Buffer) (time.Duration, bool) {
		d, res, err := serve(ctx, in, sql, buf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return d, false
		}
		cold.Add(int64(res.ColdSessions))
		queries.Add(1)
		return d, check.ok(sql, buf.Bytes())
	}
	runtime.GC()
	h0, m0 := in.sess.PlanCacheStats()
	plain := runPhase(w, cfg, timed, seconds, exec)
	h1, m1 := in.sess.PlanCacheStats()
	rep.count(plain.counts())
	// Release the session and its ML pools, so the traced half runs on a
	// heap like the one the untraced half started with.
	in.sess = nil

	// Traced: the mirror, warmed up exactly as the session was.
	m, err := newMirror(in, cfg.nproc)
	if err != nil {
		return fmt.Errorf("mirror: %w", err)
	}
	traceExec := func(warmPhase bool) executor {
		return func(ctx context.Context, sql string, buf *bytes.Buffer) (time.Duration, bool) {
			t0 := time.Now()
			err := m.query(ctx, sql, buf, warmPhase)
			d := time.Since(t0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s traced: %v\n", w.name, err)
				return d, false
			}
			return d, check.ok(sql, buf.Bytes())
		}
	}
	warmUp(w, cfg, warm, traceExec(true))
	runtime.GC()
	traced := runPhase(w, cfg, timed, seconds, traceExec(false))
	rep.count(traced.counts())
	rep.failIf(rep.Failed > 0)

	var timedRecs, plannedRecs []*record
	for _, r := range m.recs {
		if !r.warm {
			timedRecs = append(timedRecs, r)
		}
		if r.planned {
			plannedRecs = append(plannedRecs, r)
		}
	}
	if len(timedRecs) == 0 {
		return fmt.Errorf("traced phase completed no query")
	}
	per := func(recs []*record, f func(*record) float64) float64 {
		xs := make([]float64, len(recs))
		for i, r := range recs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	busyMS := func(prefixes ...string) float64 {
		return per(timedRecs, func(r *record) float64 { return ms(r.busy(prefixes...)) })
	}

	// Planning.
	rep.set("sqlparse.parse_plan_us", per(plannedRecs, func(r *record) float64 { return us(r.dur(spanParse)) }), "us")
	rep.set("opt.optimize_us", per(plannedRecs, func(r *record) float64 { return us(r.dur(spanOptimize)) }), "us")
	rep.set("opt.rules_fired", per(plannedRecs, func(r *record) float64 { return float64(r.rules) }), "count")
	rep.set("engine.lower_us", per(timedRecs, func(r *record) float64 { return us(r.dur(spanLower)) }), "us")
	hitRatio := 0.0
	if n := (h1 - h0) + (m1 - m0); n > 0 {
		hitRatio = float64(h1-h0) / float64(n)
	}
	rep.set("raven.plancache_hit_ratio", hitRatio, "ratio")

	// Predict and the ML session pool.
	rep.set("engine.run_ms", per(timedRecs, func(r *record) float64 { return ms(r.dur(spanRun)) }), "ms")
	rep.set("engine.predict_busy_ms", busyMS("Predict("), "ms")
	predictMS, err := predictProbe(in)
	if err != nil {
		return fmt.Errorf("predict probe: %w", err)
	}
	rep.set("mlruntime.predict_ms", predictMS, "ms")
	rep.set("mlruntime.cold_sessions_per_query", float64(cold.Load())/float64(max(queries.Load(), 1)), "ratio")

	// Scan and chunk decode.
	scanMS := busyMS("Scan(")
	rep.set("relational.scan_busy_ms", scanMS, "ms")
	decodeMS, err := decodeProbe(in, m)
	if err != nil {
		return fmt.Errorf("decode probe: %w", err)
	}
	rep.set("data.decode_range_ms", decodeMS, "ms")
	rep.set("data.decode_amplification", scanMS/decodeMS, "ratio")

	// Join, grouping, sort and spill.
	rep.set("relational.join_busy_ms", busyMS("HashJoin(", "ParallelHashJoin("), "ms")
	rep.set("relational.group_partial_busy_ms", busyMS("PartialGroupAggregate"), "ms")
	rep.set("relational.group_merge_ms", busyMS("GroupAggregate("), "ms")
	rep.set("relational.sort_ms", busyMS("Sort(", "PartialSort("), "ms")
	var spilled int64
	for _, r := range timedRecs {
		spilled += r.spilled
	}
	rep.set("relational.spill_bytes", float64(spilled)/float64(len(timedRecs)), "bytes")

	// Parallel execution.
	rep.set("relational.exchange_wall_ms", busyMS("Exchange("), "ms")
	speedup, err := speedupProbe(m, cfg.nproc, timed[0].sql)
	if err != nil {
		return fmt.Errorf("speedup probe: %w", err)
	}
	rep.set("engine.parallel_speedup", speedup, "ratio")

	// Result encoding.
	rep.set("data.write_csv_ms", per(timedRecs, func(r *record) float64 { return ms(r.dur(spanWrite)) }), "ms")
	rep.set("data.csv_bytes", per(timedRecs, func(r *record) float64 { return float64(r.csvBytes) }), "bytes")

	// Trace health: how much of the traced end-to-end time the spans
	// explain, what tracing costs, and how late the load generator ran.
	var total, attributed, planning, encode time.Duration
	tracedE2E := make([]float64, len(timedRecs))
	for i, r := range timedRecs {
		e2e := r.dur(spanQuery)
		tracedE2E[i] = ms(e2e)
		total += e2e
		for _, s := range r.spans {
			if s.Name != spanQuery {
				attributed += time.Duration(s.Dur)
			}
		}
		for _, n := range planningSpans {
			planning += r.dur(n)
		}
		encode += r.dur(spanWrite)
	}
	rep.set("trace.unattributed_ratio", float64(total-attributed)/float64(total), "ratio")
	rep.set("trace.overhead_ratio", median(tracedE2E)/median(plain.ms(func(o outcome) time.Duration { return o.service })), "ratio")
	rep.set("trace.planning_share", float64(planning)/float64(total), "ratio")
	rep.set("trace.encode_share", float64(encode)/float64(total), "ratio")
	lag := 0.0
	if w.open {
		lag, _ = percentile(plain.ms(func(o outcome) time.Duration { return o.lag }), 0.99)
	}
	rep.set("loadgen.lag_p99_ms", lag, "ms")
	rep.note("traced_queries", float64(len(timedRecs)), "count")
	rep.note("planned_queries", float64(len(plannedRecs)), "count")
	return writeSpans(filepath.Join(filepath.Dir(cfg.dir), "spans-"+w.name+".jsonl"), m.recs)
}

// writeSpans writes every recorded span, one JSON object a line.
func writeSpans(path string, recs []*record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return nil
}

// timeReps runs f at least three times and for at least 300ms (at most
// 200 times) and returns its median duration in milliseconds.
func timeReps(f func() error) (float64, error) {
	var xs []float64
	start := time.Now()
	for len(xs) < 3 || (time.Since(start) < 300*time.Millisecond && len(xs) < 200) {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return median(xs), nil
}

// predictProbe times mlruntime.Session.PredictColumn over the model's
// whole input (the fact table, joined to its dimensions where the model
// reads dimension columns) with one session.
func predictProbe(in *inputs) (float64, error) {
	t, err := modelInput(in)
	if err != nil {
		return 0, err
	}
	s, err := mlruntime.NewSession(in.pipe)
	if err != nil {
		return 0, err
	}
	out := in.pipe.Outputs[len(in.pipe.Outputs)-1]
	return timeReps(func() error {
		_, err := s.PredictColumn(t, out)
		return err
	})
}

// modelInput returns the fact table with every column the model reads:
// the fact table itself, or the fact table with its dimension tables'
// columns gathered by foreign key (join_group_spill).
func modelInput(in *inputs) (*data.Table, error) {
	fact := in.tables[0]
	if len(in.tables) == 1 {
		return fact, nil
	}
	cols := append([]*data.Column(nil), fact.Cols...)
	for _, dim := range in.tables[1:] {
		key := dim.Cols[0].Name // dimension tables lead with their key
		fk := fact.Col(key)
		if fk == nil {
			return nil, fmt.Errorf("fact table has no key %q", key)
		}
		row := make(map[int64]int, dim.NumRows())
		for i, k := range dim.Cols[0].I64 {
			row[k] = i
		}
		idx := make([]int, fact.NumRows())
		for i, k := range fk.I64 {
			idx[i] = row[k]
		}
		for _, c := range dim.Cols[1:] {
			cols = append(cols, c.Gather(idx))
		}
	}
	return data.NewTable(fact.Name, cols...)
}

// decodeProbe times one pass of ChunkedTable.DecodeRange over the fact
// table, one chunk-sized range at a time: the chunk-backed table the
// workload scans, or a chunked copy of an in-memory fact table.
func decodeProbe(in *inputs, m *mirror) (float64, error) {
	ct := m.chunked
	if ct == nil {
		b := data.NewChunkedBuilder(in.tables[0].Name, 0)
		if err := b.Append(in.tables[0]); err != nil {
			return 0, err
		}
		var err error
		if ct, err = b.Finish(); err != nil {
			return 0, err
		}
	}
	return timeReps(func() error {
		lo := 0
		for i := 0; i < ct.NumChunks(); i++ {
			hi := lo + ct.Chunk(i).Rows
			if _, err := ct.DecodeRange(lo, hi, nil, nil); err != nil {
				return err
			}
			lo = hi
		}
		return nil
	})
}

// speedupProbe times the same optimized plan's lowering and execution at
// DOP 1 and at DOP nproc and returns the DOP 1 time over the DOP nproc
// time.
func speedupProbe(m *mirror, nproc int, sql string) (float64, error) {
	p := m.lookup(raven.NormalizeSQL(sql))
	if p == nil {
		return 0, fmt.Errorf("query was never planned")
	}
	noMark := func(string, time.Time) time.Time { return time.Now() }
	at := func(dop int) (float64, error) {
		prof := m.prof
		prof.ExecDOP = dop
		return timeReps(func() error {
			_, err := m.execute(context.Background(), p.g, prof, noMark, time.Now())
			return err
		})
	}
	serial, err := at(1)
	if err != nil {
		return 0, err
	}
	parallel, err := at(nproc)
	if err != nil {
		return 0, err
	}
	return serial / parallel, nil
}
