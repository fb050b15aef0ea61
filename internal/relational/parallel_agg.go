package relational

import (
	"context"
	"fmt"
	"math"

	"raven/internal/data"
)

// Global aggregation is one operator pair at every DOP. PartialAggregate
// folds each batch into a mergeable accumulator row (COUNT plus
// per-aggregate SUM/MIN/MAX — AVG is carried decomposed as SUM+COUNT);
// MergeAggregate folds the partial rows in stream order and emits the
// final single-row result. At DOP 1 the partial runs inline under the
// merge; under an Exchange it runs in the workers and the exchange
// re-emits its rows in morsel order. Batch boundaries equal morsel
// boundaries (both are the profile batch size), so both placements fold
// the same partials in the same order and the results are bit-identical.

// aggPartial is the mergeable accumulator state of a global aggregation
// over one stream chunk (a batch, a morsel, or the whole input).
type aggPartial struct {
	count            float64
	sums, mins, maxs []float64
}

// newAggPartial returns the empty accumulator for n aggregates, MIN and
// MAX at their fold identities (see partialIdentity).
func newAggPartial(n int) *aggPartial {
	p := &aggPartial{
		sums: make([]float64, n),
		mins: make([]float64, n),
		maxs: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		p.mins[i] = math.Inf(1)
		p.maxs[i] = math.Inf(-1)
	}
	return p
}

// accumulateBatch computes the partial accumulator for one batch.
func accumulateBatch(b *data.Table, aggs []AggSpec) (*aggPartial, error) {
	p := newAggPartial(len(aggs))
	p.count = float64(b.NumRows())
	for gi, g := range aggs {
		if g.Fn == AggCount {
			continue
		}
		c := b.Col(g.Col)
		if c == nil {
			return nil, fmt.Errorf("relational: aggregate column %q missing", g.Col)
		}
		for i := 0; i < c.Len(); i++ {
			v := c.AsFloat(i)
			p.sums[gi] += v
			if v < p.mins[gi] {
				p.mins[gi] = v
			}
			if v > p.maxs[gi] {
				p.maxs[gi] = v
			}
		}
	}
	return p, nil
}

// finalize renders the accumulator as the single-row aggregate result,
// dividing AVG's SUM by COUNT only here.
func (p *aggPartial) finalize(aggs []AggSpec) (*data.Table, error) {
	out, err := data.NewTable("agg")
	if err != nil {
		return nil, err
	}
	for gi, g := range aggs {
		var v float64
		switch g.Fn {
		case AggCount:
			v = p.count
		case AggSum:
			v = p.sums[gi]
		case AggAvg:
			if p.count > 0 {
				v = p.sums[gi] / p.count
			}
		case AggMin:
			v = p.mins[gi]
		case AggMax:
			v = p.maxs[gi]
		}
		if err := out.AddColumn(data.NewFloat(g.As, []float64{v})); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// partialColumns names the encoded accumulator columns for n aggregates.
func partialColumns(n int) []string {
	out := make([]string, 0, 1+3*n)
	out = append(out, "__count")
	for i := 0; i < n; i++ {
		out = append(out,
			fmt.Sprintf("__sum%d", i),
			fmt.Sprintf("__min%d", i),
			fmt.Sprintf("__max%d", i))
	}
	return out
}

// encode renders the accumulator as a one-row table of float columns
// named by names (partialColumns order) — an exact float64 round trip,
// so merging loses no precision.
func (p *aggPartial) encode(names []string) (*data.Table, error) {
	cols := make([]*data.Column, 0, len(names))
	cols = append(cols, data.NewFloat(names[0], []float64{p.count}))
	for i := range p.sums {
		cols = append(cols,
			data.NewFloat(names[1+3*i], []float64{p.sums[i]}),
			data.NewFloat(names[2+3*i], []float64{p.mins[i]}),
			data.NewFloat(names[3+3*i], []float64{p.maxs[i]}))
	}
	return data.NewTable("partial", cols...)
}

// partialRows reads the rows of one encoded partial batch. The
// accumulator columns are looked up once per batch (partialRowsOf), not
// once per row.
type partialRows struct {
	n    int
	cols [][]float64 // partialColumns order
}

// partialRowsOf resolves the accumulator columns, named by names
// (partialColumns order), of a partial batch. An empty batch has no rows
// to read and needs none.
func partialRowsOf(b *data.Table, names []string) (partialRows, error) {
	pr := partialRows{n: (len(names) - 1) / 3}
	if b.NumRows() == 0 {
		return pr, nil
	}
	pr.cols = make([][]float64, len(names))
	for i, name := range names {
		c := b.Col(name)
		if c == nil {
			return pr, fmt.Errorf("relational: partial aggregate batch lacks column %q", name)
		}
		pr.cols[i] = c.F64
	}
	return pr, nil
}

// row decodes row r into a fresh accumulator, which the caller may keep.
func (pr partialRows) row(r int) *aggPartial {
	n := pr.n
	buf := make([]float64, 3*n)
	p := &aggPartial{count: pr.cols[0][r], sums: buf[:n:n], mins: buf[n : 2*n : 2*n], maxs: buf[2*n:]}
	for i := 0; i < n; i++ {
		p.sums[i] = pr.cols[1+3*i][r]
		p.mins[i] = pr.cols[2+3*i][r]
		p.maxs[i] = pr.cols[3+3*i][r]
	}
	return p
}

// foldInto merges row r — the next chunk in stream order — into p,
// reading the columns in place. Folding chunk partials in stream order is
// the only addition tree aggregation uses, at any DOP.
func (pr partialRows) foldInto(p *aggPartial, r int) {
	p.count += pr.cols[0][r]
	for i := range p.sums {
		p.sums[i] += pr.cols[1+3*i][r]
		if v := pr.cols[2+3*i][r]; v < p.mins[i] {
			p.mins[i] = v
		}
		if v := pr.cols[3+3*i][r]; v > p.maxs[i] {
			p.maxs[i] = v
		}
	}
}

// PartialAggregate folds each input batch into one encoded accumulator
// row. It runs inline under its MergeAggregate at DOP 1 and inside the
// exchange workers when the parallel rewrite wraps it in an Exchange,
// which re-emits the rows in morsel order; either way the merge folds
// them in serial batch order.
type PartialAggregate struct {
	Child Operator
	Aggs  []AggSpec

	stats OpStats
	names []string // partialColumns, computed once per Open
}

// Columns returns the encoded accumulator column names.
func (a *PartialAggregate) Columns() []string { return partialColumns(len(a.Aggs)) }

// Open opens the child. The stats stay non-Parallel: inline, the partial
// is serial work; under an Exchange the modeled time charges the
// exchange's measured wall time instead.
func (a *PartialAggregate) Open() error {
	a.stats = OpStats{Name: "PartialAggregate"}
	a.names = partialColumns(len(a.Aggs))
	return a.Child.Open()
}

// Next folds the next child batch into a one-row partial.
func (a *PartialAggregate) Next() (*data.Table, error) {
	defer startTimer(&a.stats)()
	b, err := a.Child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	p, err := accumulateBatch(b, a.Aggs)
	if err != nil {
		return nil, err
	}
	out, err := p.encode(a.names)
	if err != nil {
		return nil, err
	}
	a.stats.Rows++
	a.stats.Batches++
	return out, nil
}

// Close closes the child.
func (a *PartialAggregate) Close() error { return a.Child.Close() }

// Stats returns the operator statistics.
func (a *PartialAggregate) Stats() *OpStats { return &a.stats }

// Children returns the single child.
func (a *PartialAggregate) Children() []Operator { return []Operator{a.Child} }

// CloneWorker implements ParallelOp: clones share the (immutable) specs.
func (a *PartialAggregate) CloneWorker(child Operator) (Operator, error) {
	return &PartialAggregate{Child: child, Aggs: a.Aggs}, nil
}

// AbsorbWorker merges a worker clone's statistics.
func (a *PartialAggregate) AbsorbWorker(clone Operator) { a.stats.Absorb(clone.Stats()) }

// MergeAggregate is the global aggregation breaker: it folds the rows of
// its PartialAggregate child (inline, or under an Exchange) in stream
// order and emits the final single-row aggregate.
type MergeAggregate struct {
	Child Operator
	Aggs  []AggSpec
	// Ctx, when set (see SetContext), is polled per drained partial batch.
	Ctx context.Context

	stats OpStats
	done  bool
	names []string // partialColumns, computed once per Open
}

// Columns returns the aggregate output names.
func (m *MergeAggregate) Columns() []string {
	out := make([]string, len(m.Aggs))
	for i, g := range m.Aggs {
		out[i] = g.As
	}
	return out
}

// Open opens the child.
func (m *MergeAggregate) Open() error {
	m.stats = OpStats{Name: "Aggregate(merge)"}
	m.done = false
	m.names = partialColumns(len(m.Aggs))
	return m.Child.Open()
}

// Next drains the child's partial rows and emits the merged result.
func (m *MergeAggregate) Next() (*data.Table, error) {
	defer startTimer(&m.stats)()
	if m.done {
		return nil, nil
	}
	m.done = true
	acc := newAggPartial(len(m.Aggs))
	for {
		if err := canceled(m.Ctx); err != nil {
			return nil, err
		}
		b, err := m.Child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		rows, err := partialRowsOf(b, m.names)
		if err != nil {
			return nil, err
		}
		for r := 0; r < b.NumRows(); r++ {
			rows.foldInto(acc, r)
		}
	}
	out, err := acc.finalize(m.Aggs)
	if err != nil {
		return nil, err
	}
	m.stats.Rows++
	m.stats.Batches++
	return out, nil
}

// Close closes the child.
func (m *MergeAggregate) Close() error { return m.Child.Close() }

// Stats returns the operator statistics.
func (m *MergeAggregate) Stats() *OpStats { return &m.stats }

// Children returns the single child.
func (m *MergeAggregate) Children() []Operator { return []Operator{m.Child} }
