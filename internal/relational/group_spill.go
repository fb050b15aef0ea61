package relational

import (
	"fmt"
	"sort"

	"raven/internal/data"
)

// Grace-hash partition spill for grouped aggregation.
//
// When the groupedMerge's resident state exceeds the budget it stops
// holding groups in memory: every already-accumulated group is migrated —
// and every later fold routed — to one of groupSpillPartitions partitions
// chosen by hashing the group's canonical key bytes. A spilled row is the
// group's partial state (the PartialGroupAggregate encoding: __count,
// __sum%d/__min%d/__max%d) plus __seq, a global fold sequence number.
//
// Correctness of the re-fold rests on two orderings:
//
//   - Rows within a partition are appended in fold order, so re-folding a
//     partition front to back folds each key's partials in exactly the
//     serial order — every float result is bit-identical to the
//     in-memory fold (the first row of a key becomes the group's initial
//     state directly, just as the serial fold takes ownership of the
//     first partial).
//   - Each group's first row carries its first-occurrence sequence
//     number; sorting the re-folded groups by it restores the serial
//     first-occurrence output order across partitions.

// groupSpillPartitions is the grace-hash fan-out.
const groupSpillPartitions = 16

// groupSeqCol is the spilled-row column carrying the fold sequence.
const groupSeqCol = "__seq"

func fnv32a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// groupSpillPart buffers one partition's pending rows and the slab refs
// already flushed to the spill file.
type groupSpillPart struct {
	keys     []*keyBuilder
	seqs     []float64
	partials []*aggPartial
	bytes    int64
	slabs    []spillTable
}

// groupSpill is the spilling state of one groupedMerge.
type groupSpill struct {
	keyNames []string
	aggs     []AggSpec
	names    []string // partialColumns(len(aggs))
	sf       *spillFile
	// flushBytes bounds the bytes one partition buffers before its rows
	// are encoded into a spill slab — the 16 buffers together stay within
	// the budget the spill exists to honor.
	flushBytes int64
	parts      [groupSpillPartitions]groupSpillPart
}

func newGroupSpill(b *MemBudget, keyNames []string, aggs []AggSpec) (*groupSpill, error) {
	sf, err := b.newSpillFile("group")
	if err != nil {
		return nil, err
	}
	fb := b.spillUnit() / groupSpillPartitions
	if fb < 1 {
		fb = 1
	}
	return &groupSpill{keyNames: keyNames, aggs: aggs, names: partialColumns(len(aggs)),
		sf: sf, flushBytes: fb}, nil
}

// add routes one folded group-row (key values at row r of keyCols,
// partial state p, fold sequence seq) to its partition.
func (g *groupSpill) add(keyBytes []byte, keyCols []*data.Column, r int, p *aggPartial, seq float64) error {
	part := &g.parts[fnv32a(keyBytes)%groupSpillPartitions]
	if part.keys == nil {
		part.keys = make([]*keyBuilder, len(g.keyNames))
		for i, name := range g.keyNames {
			part.keys[i] = newKeyBuilder(name, keyCols[i].Type)
		}
	}
	for i, kb := range part.keys {
		if err := kb.add(keyCols[i], r); err != nil {
			return err
		}
	}
	part.seqs = append(part.seqs, seq)
	part.partials = append(part.partials, p)
	// Canonical key bytes plus the float columns of the partial-state row.
	part.bytes += int64(len(keyBytes)) + 8*int64(2+3*len(g.aggs))
	if part.bytes >= g.flushBytes {
		return g.flush(part)
	}
	return nil
}

// flush encodes a partition's buffered rows as one spill slab.
func (g *groupSpill) flush(part *groupSpillPart) error {
	if len(part.seqs) == 0 {
		return nil
	}
	t, err := g.table(part)
	if err != nil {
		return err
	}
	st, err := writeTable(g.sf, t)
	if err != nil {
		return err
	}
	part.slabs = append(part.slabs, st)
	part.keys, part.seqs, part.partials, part.bytes = nil, nil, nil, 0
	return nil
}

// table renders a partition's buffered rows as a spill-slab table.
func (g *groupSpill) table(part *groupSpillPart) (*data.Table, error) {
	n := len(part.seqs)
	cols := make([]*data.Column, 0, len(g.keyNames)+1+len(g.names))
	for _, kb := range part.keys {
		cols = append(cols, kb.column())
	}
	cols = append(cols, data.NewFloat(groupSeqCol, part.seqs))
	counts := make([]float64, n)
	for i, p := range part.partials {
		counts[i] = p.count
	}
	cols = append(cols, data.NewFloat(g.names[0], counts))
	for gi := range g.aggs {
		sums := make([]float64, n)
		mins := make([]float64, n)
		maxs := make([]float64, n)
		for i, p := range part.partials {
			sums[i] = p.sums[gi]
			mins[i] = p.mins[gi]
			maxs[i] = p.maxs[gi]
		}
		cols = append(cols,
			data.NewFloat(g.names[1+3*gi], sums),
			data.NewFloat(g.names[2+3*gi], mins),
			data.NewFloat(g.names[3+3*gi], maxs))
	}
	return data.NewTable("group_spill", cols...)
}

// seqFold re-folds one partition's rows in order, remembering each
// group's first-occurrence sequence number.
type seqFold struct {
	gm   *groupedMerge
	seqs []float64
}

func (f *seqFold) fold(keyCols []*data.Column, encs []groupKeyEnc, rows partialRows, r int, seq float64) error {
	before := len(f.gm.parts)
	if err := f.gm.fold(keyCols, encs, rows, r); err != nil {
		return err
	}
	if len(f.gm.parts) > before {
		f.seqs = append(f.seqs, seq)
	}
	return nil
}

// foldTable folds every row of a spilled slab (or a partition's buffered
// tail rendered as a table) in row order.
func (f *seqFold) foldTable(t *data.Table, keyNames, names []string) error {
	keyCols := make([]*data.Column, len(keyNames))
	encs := make([]groupKeyEnc, len(keyNames))
	for i, k := range keyNames {
		c := t.Col(k)
		if c == nil {
			return fmt.Errorf("relational: group spill slab lacks key column %q", k)
		}
		keyCols[i] = c
		enc, err := keyEncoder(c)
		if err != nil {
			return err
		}
		encs[i] = enc
	}
	seqCol := t.Col(groupSeqCol)
	if seqCol == nil {
		return fmt.Errorf("relational: group spill slab lacks %s", groupSeqCol)
	}
	rows, err := partialRowsOf(t, names)
	if err != nil {
		return err
	}
	for r := 0; r < t.NumRows(); r++ {
		if err := f.fold(keyCols, encs, rows, r, seqCol.F64[r]); err != nil {
			return err
		}
	}
	return nil
}

// finalize re-folds every partition and assembles the grouped output in
// global first-occurrence order. The spill file is released eagerly on
// success; on error it stays registered with the budget, whose Cleanup
// removes it.
func (g *groupSpill) finalize() (*data.Table, error) {
	type groupRef struct {
		tbl *data.Table
		row int
		seq float64
	}
	var refs []groupRef
	var proto *data.Table
	for pi := range g.parts {
		part := &g.parts[pi]
		f := &seqFold{gm: newGroupedMerge(g.keyNames, g.aggs)}
		for _, st := range part.slabs {
			t, err := readTable(g.sf, st)
			if err != nil {
				return nil, err
			}
			if err := f.foldTable(t, g.keyNames, g.names); err != nil {
				return nil, err
			}
		}
		// The partition's unflushed tail, folded in the same row order it
		// was buffered.
		if len(part.seqs) > 0 {
			t, err := g.table(part)
			if err != nil {
				return nil, err
			}
			if err := f.foldTable(t, g.keyNames, g.names); err != nil {
				return nil, err
			}
		}
		out, err := f.gm.finalize()
		if err != nil {
			return nil, err
		}
		if out == nil {
			continue
		}
		if proto == nil {
			proto = out
		}
		for r := 0; r < out.NumRows(); r++ {
			refs = append(refs, groupRef{tbl: out, row: r, seq: f.seqs[r]})
		}
	}
	g.sf.release()
	if proto == nil {
		return nil, nil
	}
	// Global first-occurrence order: ascending fold sequence of each
	// group's first row. Sequences are distinct, so the sort is total.
	sort.Slice(refs, func(a, b int) bool { return refs[a].seq < refs[b].seq })
	final := data.NewTableLike(proto)
	for _, ref := range refs {
		if err := final.AppendRow(ref.tbl, ref.row); err != nil {
			return nil, err
		}
	}
	return final, nil
}

// spilledBytes reports the bytes this spill wrote (valid after finalize
// too — the counter lives on the file struct, not the fd).
func (g *groupSpill) spilledBytes() int64 { return g.sf.bytesWritten() }
