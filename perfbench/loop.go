package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"raven"
	"raven/internal/data"
)

// An end-to-end run sets its workload up at least minSetups times and
// until it has spent setupSeconds doing so (at most maxSetups times);
// setup_s is the median.
const (
	minSetups    = 3
	maxSetups    = 7
	setupSeconds = 3.0
)

// closedWarmup is the number of untimed queries a closed-loop client
// runs first (the first runs of a query pay lazy pool and cache fills).
const closedWarmup = 2

// openWarmupSeconds is the untimed open-loop phase before point_serve's
// timed one.
const openWarmupSeconds = 1.0

// outcome is one executed request as a phase records it.
type outcome struct {
	lat     time.Duration // from due time (open loop) or send (closed) to the last CSV byte
	service time.Duration // from send to the last CSV byte
	lag     time.Duration // how late the generator sent it (open loop)
	ok      bool          // no error and the CSV bytes equal the reference
}

// phase is the record of one timed phase.
type phase struct {
	outs []outcome
}

// executor runs one request from SQL text to CSV bytes and returns the
// time that took; ok reports whether the bytes match the reference (the
// comparison is not timed).
type executor func(ctx context.Context, sql string, buf *bytes.Buffer) (d time.Duration, ok bool)

// runPhase executes reqs: closed loop over reqs[0] for the given seconds
// when the workload is closed, else open loop at the schedule's due
// times with at most nproc requests in flight.
func runPhase(w *workload, cfg *config, reqs []request, seconds float64, exec executor) *phase {
	if !w.open {
		return closedLoop(reqs[0].sql, seconds, exec)
	}
	return openLoop(reqs, cfg.nproc, exec)
}

func closedLoop(sql string, seconds float64, exec executor) *phase {
	ctx := context.Background()
	var buf bytes.Buffer
	p := &phase{}
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(end) {
		d, ok := exec(ctx, sql, &buf)
		p.outs = append(p.outs, outcome{lat: d, service: d, ok: ok})
	}
	return p
}

// openLoop sends each request at its due time regardless of how earlier
// ones fare (independent users) and times it from that due time, so a
// stall also charges the requests queued behind it.
func openLoop(reqs []request, workers int, exec executor) *phase {
	type job struct {
		idx int
		due time.Time
	}
	// Sized to the number of sends, so the generator never blocks and its
	// lateness measures only its own timer slop.
	jobs := make(chan job, len(reqs))
	outs := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			var buf bytes.Buffer
			for j := range jobs {
				wait := time.Since(j.due)
				d, ok := exec(ctx, reqs[j.idx].sql, &buf)
				outs[j.idx].lat = wait + d
				outs[j.idx].service = d
				outs[j.idx].ok = ok
			}
		}()
	}
	start := time.Now()
	for i, r := range reqs {
		due := start.Add(r.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		outs[i].lag = time.Since(due)
		jobs <- job{idx: i, due: due}
	}
	close(jobs)
	wg.Wait()
	return &phase{outs: outs}
}

// counts returns attempted and failed requests.
func (p *phase) counts() (attempted, failed int) {
	for _, o := range p.outs {
		if !o.ok {
			failed++
		}
	}
	return len(p.outs), failed
}

func (p *phase) ms(f func(outcome) time.Duration) []float64 {
	xs := make([]float64, 0, len(p.outs))
	for _, o := range p.outs {
		xs = append(xs, float64(f(o))/float64(time.Millisecond))
	}
	return xs
}

// percentile returns the nearest-rank q-quantile of xs and whether at
// least ten samples lie beyond it — the rule for reporting a percentile.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s)-rank >= 10
}

// heapSampler records the peak live Go heap (the live bytes the last GC
// cycle marked) while a phase runs. Sampling sees the live heap only as
// of the latest GC cycle, so peakMB also forces one at the end: a heap
// that only grows then reads its true final size rather than wherever
// the last cycle happened to fall.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			h.peak = max(h.peak, liveHeap())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	return float64(max(h.peak, liveHeap())) / (1 << 20)
}

// liveHeap returns the heap bytes the latest GC cycle marked live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// cpuTime returns the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checker compares results against the reference bytes.
type checker map[string][]byte

func (c checker) ok(sql string, got []byte) bool {
	want, found := c[sql]
	return found && bytes.Equal(want, got)
}

// runWorkload is one run of a workload: the end-to-end run, or with
// cfg.trace the traced per-layer run.
func runWorkload(w *workload, cfg *config) (*report, error) {
	rep := newReport()
	var in *inputs
	var setups []float64
	var spent float64
	for len(setups) < maxSetups && (len(setups) < minSetups || spent < setupSeconds) {
		if cfg.trace && len(setups) == 1 {
			break // the traced run reports no setup_s
		}
		if in != nil {
			in.close()
			in = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
	}
	rep.note("setups", float64(len(setups)), "count")
	defer in.close()

	warm := w.schedule(cfg, in, openWarmupSeconds, 1)
	seconds := cfg.seconds
	if cfg.trace {
		// The traced run times the workload twice (plain and traced).
		seconds /= 2
	}
	timed := w.schedule(cfg, in, seconds, 2)
	t0 := time.Now()
	check, err := in.references(append(append([]request(nil), warm...), timed...))
	if err != nil {
		return nil, err
	}
	rep.note("reference_s", time.Since(t0).Seconds(), "s")
	if cfg.corruptRefs {
		for _, ref := range check {
			ref[len(ref)/2] ^= 1
		}
	}

	exec := func(ctx context.Context, sql string, buf *bytes.Buffer) (time.Duration, bool) {
		d, _, err := serve(ctx, in, sql, buf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return d, false
		}
		return d, check.ok(sql, buf.Bytes())
	}
	warmUp(w, cfg, warm, exec)
	if cfg.trace {
		return rep, tracedRun(w, cfg, in, warm, timed, check, rep)
	}

	runtime.GC()
	startMB := float64(liveHeap()) / (1 << 20)
	_, missesBefore := in.sess.PlanCacheStats()
	heap := startHeapSampler()
	cpu0 := cpuTime()
	p := runPhase(w, cfg, timed, seconds, exec)
	cpu := cpuTime() - cpu0
	peak := heap.peakMB()
	_, missesAfter := in.sess.PlanCacheStats()

	attempted, failed := p.counts()
	rep.count(attempted, failed)
	rep.failIf(failed > 0)
	rep.set("setup_s", median(setups), "s")
	lat := p.ms(func(o outcome) time.Duration { return o.lat })
	reportLatency(rep, lat)
	var serviceS float64
	for _, o := range p.outs {
		if o.ok {
			serviceS += o.service.Seconds()
		}
	}
	rep.note("rows_per_s", float64(w.factRows(in)*(attempted-failed))/serviceS, "1/s")
	rep.note("cpu_ms_per_query", float64(cpu)/float64(time.Millisecond)/float64(attempted), "ms")
	rep.set("peak_heap_mb", peak, "MiB")
	rep.note("error_rate", float64(failed)/float64(attempted), "ratio")
	if w.open {
		miss := 0
		for _, o := range p.outs {
			if !o.ok || o.lat > pointSLO {
				miss++
			}
		}
		rep.note("slo_miss_ratio", float64(miss)/float64(attempted), "ratio")
		rep.note("slo_limit_ms", float64(pointSLO)/float64(time.Millisecond), "ms")
		rep.note("offered_rate", pointRate, "1/s")
		rep.note("distinct_texts", float64(len(check)), "count")
		// The ML session pool keeps one entry per planned query: the
		// heap grown per plan-cache miss is the pool-growth baseline.
		misses := float64(missesAfter - missesBefore)
		rep.note("plan_cache_misses", misses, "count")
		if misses > 0 {
			rep.note("heap_growth_mb_per_1000_misses", (peak-startMB)/misses*1000, "MiB")
		}
		if v, ok := percentile(p.ms(func(o outcome) time.Duration { return o.lag }), 0.99); ok {
			rep.note("loadgen.lag_p99_ms", v, "ms")
		}
	}
	return rep, nil
}

// serve is what the /query handler of `ravensql -serve` does with a
// request, timed: QueryContext, then WriteCSV of the result into buf.
func serve(ctx context.Context, in *inputs, sql string, buf *bytes.Buffer) (time.Duration, *raven.Result, error) {
	buf.Reset()
	t0 := time.Now()
	res, err := in.sess.QueryContext(ctx, sql)
	if err == nil {
		err = data.WriteCSV(res.Table, buf)
	}
	return time.Since(t0), res, err
}

// warmUp runs the untimed warm-up: a few closed-loop queries, or the
// warm-up schedule of an open-loop workload.
func warmUp(w *workload, cfg *config, warm []request, exec executor) {
	if w.open {
		openLoop(warm, cfg.nproc, exec)
		return
	}
	var buf bytes.Buffer
	for i := 0; i < closedWarmup; i++ {
		exec(context.Background(), warm[0].sql, &buf)
	}
}

// reportLatency sets lat_p50_ms and notes p90/p99 where the sample
// supports them (at least ten samples beyond the percentile).
func reportLatency(rep *report, lat []float64) {
	rep.note("samples", float64(len(lat)), "count")
	p50, ok := percentile(lat, 0.5)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: only %d samples: lat_p50_ms has fewer than ten beyond it\n", len(lat))
	}
	rep.set("lat_p50_ms", p50, "ms")
	for _, q := range []struct {
		name string
		q    float64
	}{{"lat_p90_ms", 0.9}, {"lat_p99_ms", 0.99}} {
		if v, ok := percentile(lat, q.q); ok {
			rep.note(q.name, v, "ms")
		}
	}
}
