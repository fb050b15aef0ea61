package data

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Chunked compressed column storage: a ChunkedTable holds its rows as a
// sequence of independently encoded chunks (encode.go), so consumers
// decode one chunk's worth of the columns they actually read instead of
// materializing the whole table — the out-of-core counterpart of Table.
// ReadCSVChunked (csv.go) streams a CSV into this form without ever
// holding the decoded table; the relational spill files reuse the same
// block encoding for breaker state that exceeds the query memory budget.

// ColumnBlock is one encoded column of one chunk.
type ColumnBlock struct {
	Meta BlockMeta
	Data []byte
}

// Chunk is a horizontal slice of a chunked table: one encoded block per
// column, all covering the same row range.
type Chunk struct {
	Rows   int
	Blocks []ColumnBlock
}

// Decode materializes the named columns of the chunk (nil names = every
// column) as an in-memory table. Only the requested blocks are decoded —
// the unit of IO the chunk reader accounts per morsel.
func (ch *Chunk) Decode(name string, names []string) (*Table, error) {
	return ch.decodeRows(name, names, 0, ch.Rows)
}

// decodeRows is Decode restricted to rows [lo, hi) of the chunk: each
// requested block decodes only those rows (DecodeColumnRange), so a
// morsel reading part of a chunk pays for the rows it reads.
func (ch *Chunk) decodeRows(name string, names []string, lo, hi int) (*Table, error) {
	t, err := NewTable(name)
	if err != nil {
		return nil, err
	}
	for _, blk := range ch.Blocks {
		if names != nil && !slices.Contains(names, blk.Meta.Name) {
			continue
		}
		c, err := DecodeColumnRange(blk.Meta, blk.Data, lo, hi)
		if err != nil {
			return nil, err
		}
		if err := t.AddColumn(c); err != nil {
			return nil, err
		}
	}
	if names != nil && t.NumCols() != len(names) {
		return nil, fmt.Errorf("data: chunk of %q lacks some of columns %v", name, names)
	}
	return t, nil
}

// CompressedBytes is the encoded payload size of the chunk.
func (ch *Chunk) CompressedBytes() int64 {
	var n int64
	for _, blk := range ch.Blocks {
		n += int64(len(blk.Data)) + int64(len(blk.Meta.Valid))
	}
	return n
}

// ChunkedTable is a table stored as encoded chunks.
type ChunkedTable struct {
	Name   string
	schema Schema
	chunks []*Chunk
	rows   int

	offsetsOnce sync.Once
	starts      []int
}

// NumRows returns the total row count across chunks.
func (ct *ChunkedTable) NumRows() int { return ct.rows }

// NumChunks returns the chunk count.
func (ct *ChunkedTable) NumChunks() int { return len(ct.chunks) }

// Chunk returns chunk i.
func (ct *ChunkedTable) Chunk(i int) *Chunk { return ct.chunks[i] }

// Schema returns the table schema.
func (ct *ChunkedTable) Schema() Schema { return ct.schema }

// CompressedBytes is the encoded payload size across all chunks.
func (ct *ChunkedTable) CompressedBytes() int64 {
	var n int64
	for _, ch := range ct.chunks {
		n += ch.CompressedBytes()
	}
	return n
}

// Decode materializes the whole chunked table (tests and small tables;
// scanning code should use Reader instead).
func (ct *ChunkedTable) Decode() (*Table, error) {
	r := ct.Reader(nil)
	var out *Table
	for {
		b, err := r.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if out == nil {
			out = b
			continue
		}
		if err := out.AppendFrom(b); err != nil {
			return nil, err
		}
	}
	if out == nil {
		return NewTable(ct.Name)
	}
	return out, nil
}

// rowOffsets returns the cumulative row offsets of the chunks: starts[i]
// is the first row of chunk i and starts[len(chunks)] == NumRows. Computed
// once; safe for concurrent readers because chunked tables are immutable
// after Finish.
func (ct *ChunkedTable) rowOffsets() []int {
	ct.offsetsOnce.Do(func() {
		ct.starts = make([]int, len(ct.chunks)+1)
		for i, ch := range ct.chunks {
			ct.starts[i+1] = ct.starts[i] + ch.Rows
		}
	})
	return ct.starts
}

// ChunkCache is the type of DecodeRange's unused cache argument. Range
// decoding costs the same with or without a cache, so none is kept; the
// argument stays for callers written against the cached signature.
type ChunkCache struct{}

// DecodeRange materializes rows [lo, hi) of the named columns (nil = all).
// Each chunk the range overlaps decodes only its overlap, so a range
// smaller than a chunk costs its own rows, not the chunk's; a range
// spanning chunks appends the overlaps in order. Decoded string columns
// keep the chunked table's shared *Dictionary pointers, so every dict
// fast path downstream survives out-of-core storage. cache is unused and
// may be nil.
func (ct *ChunkedTable) DecodeRange(lo, hi int, cols []string, cache *ChunkCache) (*Table, error) {
	if lo < 0 || hi > ct.rows || lo > hi {
		return nil, fmt.Errorf("data: decode range [%d,%d) of %q with %d rows", lo, hi, ct.Name, ct.rows)
	}
	if lo == hi {
		return emptyWithSchema(ct.Name, ct.schema), nil
	}
	starts := ct.rowOffsets()
	// First chunk whose range contains row lo.
	ci := sort.SearchInts(starts, lo+1) - 1
	var out *Table
	for pos := lo; pos < hi; ci++ {
		clo, chi := starts[ci], starts[ci+1]
		part, err := ct.chunks[ci].decodeRows(ct.Name, cols, pos-clo, min(hi, chi)-clo)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = part
		} else if err := out.AppendFrom(part); err != nil {
			return nil, err
		}
		pos = chi
	}
	return out, nil
}

// Reader returns a chunk reader over the named columns (nil = all): each
// Next decodes exactly one chunk's requested blocks, so a morsel-at-a-time
// consumer never holds more than one decoded chunk.
func (ct *ChunkedTable) Reader(cols []string) *ChunkReader {
	return &ChunkReader{ct: ct, cols: cols}
}

// ChunkReader iterates a ChunkedTable one decoded chunk at a time.
type ChunkReader struct {
	ct   *ChunkedTable
	cols []string
	next int
}

// Next decodes and returns the next chunk, or nil at the end.
func (r *ChunkReader) Next() (*Table, error) {
	if r.next >= len(r.ct.chunks) {
		return nil, nil
	}
	ch := r.ct.chunks[r.next]
	r.next++
	return ch.Decode(r.ct.Name, r.cols)
}

// DefaultChunkRows is the chunk size ChunkedBuilder uses when none is
// given: big enough to amortize per-block metadata, small enough that one
// decoded chunk stays morsel-sized.
const DefaultChunkRows = 8192

// ChunkedBuilder accumulates rows and cuts encoded chunks of a fixed row
// count. Append order is preserved exactly.
type ChunkedBuilder struct {
	name      string
	chunkRows int

	pending *Table
	out     *ChunkedTable
}

// NewChunkedBuilder returns a builder cutting chunks of chunkRows rows
// (<= 0 selects DefaultChunkRows).
func NewChunkedBuilder(name string, chunkRows int) *ChunkedBuilder {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	return &ChunkedBuilder{name: name, chunkRows: chunkRows, out: &ChunkedTable{Name: name}}
}

// Append adds the table's rows to the builder, cutting full chunks as
// they fill.
func (b *ChunkedBuilder) Append(t *Table) error {
	if b.pending == nil {
		b.pending = t.Clone()
	} else if err := b.pending.AppendFrom(t); err != nil {
		return err
	}
	for b.pending.NumRows() >= b.chunkRows {
		if err := b.cut(b.pending.Slice(0, b.chunkRows)); err != nil {
			return err
		}
		rest := b.pending.Slice(b.chunkRows, b.pending.NumRows())
		b.pending = rest.Clone()
	}
	return nil
}

// cut encodes one full slice as a chunk.
func (b *ChunkedBuilder) cut(t *Table) error {
	if b.out.schema == nil {
		b.out.schema = t.Schema()
	}
	ch := &Chunk{Rows: t.NumRows()}
	for _, c := range t.Cols {
		m, raw, err := EncodeColumn(c)
		if err != nil {
			return err
		}
		ch.Blocks = append(ch.Blocks, ColumnBlock{Meta: m, Data: raw})
	}
	b.out.chunks = append(b.out.chunks, ch)
	b.out.rows += ch.Rows
	return nil
}

// Finish flushes the partial tail chunk and returns the chunked table.
func (b *ChunkedBuilder) Finish() (*ChunkedTable, error) {
	if b.pending != nil && b.pending.NumRows() > 0 {
		if err := b.cut(b.pending); err != nil {
			return nil, err
		}
	}
	if b.pending != nil && b.out.schema == nil {
		b.out.schema = b.pending.Schema()
	}
	b.pending = nil
	return b.out, nil
}
