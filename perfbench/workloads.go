package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"raven"
	"raven/internal/data"
	"raven/internal/datagen"
	"raven/internal/model"
	"raven/internal/train"
)

// Workload sizes. They are fixed (README.md records why); only -smoke
// scales them down.
const (
	batchRows = 200000 // hospital rows scored per batch_score query
	joinRows  = 200000 // expedia searches joined, scored and grouped per query
	pointRows = 20000  // hospital rows point_serve looks patients up in

	// joinBudget is the global memory budget of join_group_spill: well
	// below the ~200k-group aggregation state, so the grouping spills.
	joinBudget = 2 << 20

	// pointRate is point_serve's fixed Poisson arrival rate (requests/s),
	// low enough that a 2-CPU host keeps up without a growing backlog.
	pointRate = 200
	// pointZipfS skews point_serve's patient keys: hot keys repeat their
	// SQL text (plan-cache hits), the long tail is fresh text (misses).
	pointZipfS = 1.3
	// pointSLO is point_serve's latency limit: a request that fails or
	// takes longer, from its due time to its last CSV byte, misses it.
	pointSLO = 10 * time.Millisecond
)

// workload is one named benchmark workload.
type workload struct {
	name string
	// open marks an open-loop workload (requests at a fixed rate from
	// independent users); the others run closed loop with one client.
	open bool
	// setup generates the inputs from the seed, trains the model and
	// registers everything in a fresh session; this is what setup_s times.
	setup func(cfg *config) (*inputs, error)
}

// inputs is one workload's generated, registered state.
type inputs struct {
	sess *raven.Session
	pipe *model.Pipeline
	// tables are the generated tables (fact table first). Registered
	// directly unless csvPaths is set, in which case the session read
	// them back from those CSV files.
	tables   []*data.Table
	csvPaths []string
	budget   int64 // global memory budget (0 = none)
	spillDir string
	dirs     []string // scratch directories to remove with the inputs
	// query renders the SQL text of a request; key is the request's
	// lookup key (point_serve) and ignored elsewhere.
	query func(key int) string
	// scoreAll, when set, is the whole-table scoring query whose row K
	// is the reference answer of lookup key K (point_serve).
	scoreAll string
}

var workloads = []*workload{
	{
		name: "batch_score",
		setup: func(cfg *config) (*inputs, error) {
			return hospitalInputs(cfg, scaled(cfg, batchRows), false)
		},
	},
	{
		name:  "join_group_spill",
		setup: joinInputs,
	},
	{
		name: "point_serve",
		open: true,
		setup: func(cfg *config) (*inputs, error) {
			return hospitalInputs(cfg, scaled(cfg, pointRows), true)
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func scaled(cfg *config, rows int) int {
	return max(2000, int(float64(rows)*cfg.scale))
}

// trainGB fits the gradient-boosted model every workload scores with.
func trainGB(ds *datagen.Dataset, seed int64) (*model.Pipeline, error) {
	return ds.Train(train.KindGradientBoosting, func(s *train.Spec) {
		s.NEstimators = 20
		s.MaxDepth = 4
		s.LearningRate = 0.2
		s.Seed = seed
	})
}

// hospitalInputs builds batch_score (whole-table scoring) and point_serve
// (one patient per query, WHERE d.eid = K) over in-memory hospital data.
func hospitalInputs(cfg *config, rows int, point bool) (*inputs, error) {
	ds := datagen.Hospital(rows, cfg.seed)
	pipe, err := trainGB(ds, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	sess := raven.NewSession(raven.WithParallelism(cfg.nproc))
	for _, t := range ds.Tables {
		sess.RegisterTable(t)
	}
	if err := sess.RegisterModel(pipe); err != nil {
		return nil, err
	}
	in := &inputs{sess: sess, pipe: pipe, tables: ds.Tables}
	sql := ds.Query(pipe.Name)
	in.query = func(int) string { return sql }
	if point {
		in.query = func(key int) string { return ds.Query(pipe.Name, fmt.Sprintf("d.eid = %d", key)) }
		in.scoreAll = sql
	}
	return in, nil
}

// joinInputs builds join_group_spill: the expedia tables are written to
// CSV and registered back through RegisterTableCSV (the searches table is
// large enough to stay chunked), and the session runs under a global
// memory budget well below the grouping state.
func joinInputs(cfg *config) (*inputs, error) {
	ds := datagen.Expedia(scaled(cfg, joinRows), cfg.seed)
	pipe, err := trainGB(ds, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	csvDir, err := os.MkdirTemp(cfg.dir, "csv")
	if err != nil {
		return nil, err
	}
	spillDir, err := os.MkdirTemp(cfg.dir, "spill")
	if err != nil {
		return nil, err
	}
	in := &inputs{pipe: pipe, tables: ds.Tables, budget: joinBudget, spillDir: spillDir,
		dirs: []string{csvDir, spillDir}}
	for _, t := range ds.Tables {
		path := filepath.Join(csvDir, t.Name+".csv")
		if err := writeCSVFile(t, path); err != nil {
			return nil, err
		}
		in.csvPaths = append(in.csvPaths, path)
	}
	in.sess = raven.NewSession(raven.WithParallelism(cfg.nproc), raven.WithGlobalMemoryBudget(in.budget, spillDir))
	if err := in.registerCSV(in.sess); err != nil {
		return nil, err
	}
	sql := strings.Replace(ds.Query(pipe.Name), "SELECT p.score FROM",
		"SELECT d.srch_id AS sid, AVG(p.score) AS s FROM", 1) +
		" GROUP BY d.srch_id ORDER BY s DESC LIMIT 10"
	in.query = func(int) string { return sql }
	return in, nil
}

// close removes the inputs' scratch files.
func (in *inputs) close() {
	for _, d := range in.dirs {
		os.RemoveAll(d)
	}
}

func writeCSVFile(t *data.Table, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := data.WriteCSV(t, f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func (in *inputs) registerCSV(s *raven.Session) error {
	for _, p := range in.csvPaths {
		if _, err := s.RegisterTableCSV(p); err != nil {
			return fmt.Errorf("registering %s: %w", p, err)
		}
	}
	return s.RegisterModel(in.pipe)
}

// referenceSession is the configuration every timed answer is checked
// against: DOP 1, no memory budget, in-memory tables, plan cache off.
func (in *inputs) referenceSession() (*raven.Session, error) {
	s := raven.NewSession(raven.WithParallelism(1), raven.WithPlanCacheSize(-1), raven.WithChunkedRegistration(-1))
	if in.csvPaths != nil {
		return s, in.registerCSV(s)
	}
	for _, t := range in.tables {
		s.RegisterTable(t)
	}
	return s, s.RegisterModel(in.pipe)
}

// references computes the reference CSV bytes of every distinct request
// once. A lookup's reference is its row of one whole-table scoring (the
// hospital table's eid is its row number), which costs one query instead
// of one per distinct key.
func (in *inputs) references(reqs []request) (checker, error) {
	s, err := in.referenceSession()
	if err != nil {
		return nil, err
	}
	csvOf := func(t *data.Table) ([]byte, error) {
		var buf bytes.Buffer
		err := data.WriteCSV(t, &buf)
		return buf.Bytes(), err
	}
	refs := make(checker)
	var all *data.Table
	if in.scoreAll != "" {
		res, err := s.Query(in.scoreAll)
		if err != nil {
			return nil, fmt.Errorf("reference %q: %w", in.scoreAll, err)
		}
		all = res.Table
	}
	for _, r := range reqs {
		if _, ok := refs[r.sql]; ok {
			continue
		}
		t := all
		if t != nil {
			t = all.Slice(r.key, r.key+1)
		} else {
			res, err := s.Query(r.sql)
			if err != nil {
				return nil, fmt.Errorf("reference %q: %w", r.sql, err)
			}
			t = res.Table
		}
		if refs[r.sql], err = csvOf(t); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// request is one query of a run; due is its send time relative to the
// start of the phase (open loop only).
type request struct {
	sql string
	key int
	due time.Duration
}

// schedule generates the requests of one phase from the seed. Closed-loop
// workloads repeat their one query, so the schedule is a single request
// the client loops over; point_serve draws Poisson arrivals at pointRate
// and Zipf-skewed patient keys, with key ranks permuted so the hot keys
// are spread over the table.
func (w *workload) schedule(cfg *config, in *inputs, seconds float64, stream int64) []request {
	if !w.open {
		return []request{{sql: in.query(0)}}
	}
	rng := rand.New(rand.NewSource(cfg.seed*1000003 + stream))
	keys := in.tables[0].NumRows() // one lookup key per patient
	perm := rand.New(rand.NewSource(cfg.seed)).Perm(keys)
	zipf := rand.NewZipf(rng, pointZipfS, 1, uint64(keys-1))
	var reqs []request
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() / pointRate * float64(time.Second))
		if at.Seconds() >= seconds {
			return reqs
		}
		key := perm[zipf.Uint64()]
		reqs = append(reqs, request{sql: in.query(key), key: key, due: at})
	}
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// factRows is the number of fact-table rows one query of w scores.
func (w *workload) factRows(in *inputs) int {
	if w.open {
		return 1
	}
	return in.tables[0].NumRows()
}
