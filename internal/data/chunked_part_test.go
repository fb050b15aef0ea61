package data

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// Chunk-backed partition tests: DecodeRange must reproduce the exact
// bytes of slicing the source table (floats bitwise, dictionary columns
// over the same shared *Dictionary), and ChunkPartitioned's streamed
// statistics must equal the whole-table statistics.

// chunkFixture builds a table with every column representation: float,
// int, bool, raw string and dictionary-encoded string.
func chunkFixture(t *testing.T, n int) *Table {
	t.Helper()
	ids := make([]int64, n)
	vs := make([]float64, n)
	flags := make([]bool, n)
	raw := make([]string, n)
	ds := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		vs[i] = float64(i) * 0.1 // inexact in binary: catches any re-rounding
		flags[i] = i%3 == 0
		raw[i] = fmt.Sprintf("s%03d", i%7)
		ds[i] = []string{"aa", "bb", "cc", "dd", "ee"}[i%5]
	}
	return MustNewTable("t",
		NewInt("id", ids), NewFloat("v", vs), NewBool("flag", flags),
		NewString("s", raw), DictEncode(NewString("d", ds)))
}

// chunkOf encodes the table into chunks of chunkRows rows.
func chunkOf(t *testing.T, src *Table, chunkRows int) *ChunkedTable {
	t.Helper()
	b := NewChunkedBuilder(src.Name, chunkRows)
	if err := b.Append(src); err != nil {
		t.Fatal(err)
	}
	ct, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// assertTableBits compares two tables bit-for-bit: same shape, same
// column types and representation (raw vs dict), identical float bits.
func assertTableBits(t *testing.T, want, got *Table) {
	t.Helper()
	if want.NumRows() != got.NumRows() || want.NumCols() != got.NumCols() {
		t.Fatalf("shape: want %dx%d, got %dx%d",
			want.NumRows(), want.NumCols(), got.NumRows(), got.NumCols())
	}
	for _, wc := range want.Cols {
		gc := got.Col(wc.Name)
		if gc == nil {
			t.Fatalf("missing column %q", wc.Name)
		}
		// Representation (raw vs dict) must match for non-empty results;
		// zero-row tables are schema-only and carry no dictionaries.
		assertColumnBits(t, wc, gc, want.NumRows() > 0)
	}
}

// assertColumnBits compares two columns bit-for-bit: same type and
// length, identical float bits, equal values otherwise, and (when
// checkRepr is set) the same raw vs dict representation.
func assertColumnBits(t *testing.T, want, got *Column, checkRepr bool) {
	t.Helper()
	if got.Type != want.Type || got.Len() != want.Len() || (checkRepr && got.IsDict() != want.IsDict()) {
		t.Fatalf("column %q: type/len/repr %v/%d/%v, want %v/%d/%v",
			want.Name, got.Type, got.Len(), got.IsDict(), want.Type, want.Len(), want.IsDict())
	}
	for i := 0; i < want.Len(); i++ {
		switch want.Type {
		case Float64:
			if math.Float64bits(want.F64[i]) != math.Float64bits(got.F64[i]) {
				t.Fatalf("column %q row %d: float bits %x != %x",
					want.Name, i, got.F64[i], want.F64[i])
			}
		default:
			if want.AsString(i) != got.AsString(i) {
				t.Fatalf("column %q row %d: %s != %s",
					want.Name, i, got.AsString(i), want.AsString(i))
			}
		}
	}
}

func TestDecodeRangeMatchesSlice(t *testing.T) {
	const n = 1000
	src := chunkFixture(t, n)
	ct := chunkOf(t, src, 97) // deliberately misaligned with every batch size
	// Ranges inside one chunk (starting mid-byte of the packed payloads,
	// ending in a chunk's last rows), across one boundary and across many.
	ranges := [][2]int{
		{0, 0}, {0, 1}, {0, 97}, {0, 98}, {5, 90}, {96, 98},
		{97, 194}, {100, 500}, {950, n}, {0, n},
		{1, 9}, {3, 11}, {90, 97}, {93, 96}, {98, 103}, {193, 200}, {999, n},
	}
	proj, err := src.Project([]string{"id", "s", "d"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ranges {
		got, err := ct.DecodeRange(r[0], r[1], nil, nil)
		if err != nil {
			t.Fatalf("DecodeRange(%d,%d): %v", r[0], r[1], err)
		}
		assertTableBits(t, src.Slice(r[0], r[1]), got)
		if r[0] == r[1] {
			continue // an empty range returns the whole schema
		}
		got, err = ct.DecodeRange(r[0], r[1], []string{"d", "id", "s"}, nil)
		if err != nil {
			t.Fatalf("DecodeRange(%d,%d) of a column subset: %v", r[0], r[1], err)
		}
		assertTableBits(t, proj.Slice(r[0], r[1]), got)
	}
	// Nulls from the chunked CSV loader: validity bitmaps read at each
	// chunk's own rows, with nulls inside and outside the range.
	var sb strings.Builder
	sb.WriteString("id,v,ok\n")
	for i := 0; i < 60; i++ {
		if i%7 == 2 {
			sb.WriteString(",,\n")
			continue
		}
		fmt.Fprintf(&sb, "%d,%d.5,%t\n", i, i, i%2 == 0)
	}
	nct, err := ReadCSVChunked("n", strings.NewReader(sb.String()), 16)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := nct.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{0, 60}, {2, 3}, {3, 9}, {1, 17}, {15, 33}, {40, 60}} {
		got, err := nct.DecodeRange(r[0], r[1], nil, nil)
		if err != nil {
			t.Fatalf("DecodeRange(%d,%d) with nulls: %v", r[0], r[1], err)
		}
		assertTableBits(t, whole.Slice(r[0], r[1]), got)
	}
	// Dictionary columns decode over the source table's own dictionary —
	// pointer identity, not just equal values — so dict fast paths survive.
	got, err := ct.DecodeRange(0, n, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Col("d").Dict != src.Col("d").Dict {
		t.Fatal("decoded dict column does not share the source dictionary")
	}
	if _, err := ct.DecodeRange(-1, 5, nil, nil); err == nil {
		t.Fatal("negative lo accepted")
	}
	if _, err := ct.DecodeRange(0, n+1, nil, nil); err == nil {
		t.Fatal("hi beyond rows accepted")
	}
}

func TestDecodeRangeCachedForwardWalk(t *testing.T) {
	const n = 1000
	src := chunkFixture(t, n)
	ct := chunkOf(t, src, 97)
	cols := []string{"v", "d"}
	proj, err := src.Project(cols)
	if err != nil {
		t.Fatal(err)
	}
	// The cache argument is accepted and ignored: a forward walk decodes
	// each batch's own rows.
	cache := &ChunkCache{}
	for lo := 0; lo < n; lo += 128 {
		hi := min(lo+128, n)
		got, err := ct.DecodeRange(lo, hi, cols, cache)
		if err != nil {
			t.Fatalf("DecodeRange(%d,%d): %v", lo, hi, err)
		}
		assertTableBits(t, proj.Slice(lo, hi), got)
	}
}

func TestChunkPartitionedStatsMatchWholeTable(t *testing.T) {
	const n = 1000
	src := chunkFixture(t, n)
	pt, err := ChunkPartitioned(chunkOf(t, src, 97))
	if err != nil {
		t.Fatal(err)
	}
	if pt.NumRows() != n {
		t.Fatalf("NumRows = %d, want %d", pt.NumRows(), n)
	}
	want := ComputeTableStats(src)
	got := pt.Parts[0].Stats
	for name, ws := range want {
		gs, ok := got[name]
		if !ok {
			t.Fatalf("missing stats for %q", name)
		}
		if gs.Rows != ws.Rows || gs.DistinctOverflow != ws.DistinctOverflow {
			t.Fatalf("%q: rows/overflow %d/%v, want %d/%v",
				name, gs.Rows, gs.DistinctOverflow, ws.Rows, ws.DistinctOverflow)
		}
		if ws.HasRange() && (gs.Min != ws.Min || gs.Max != ws.Max) {
			t.Fatalf("%q: range [%v,%v], want [%v,%v]", name, gs.Min, gs.Max, ws.Min, ws.Max)
		}
		if len(gs.Distinct) != len(ws.Distinct) {
			t.Fatalf("%q: %d distinct, want %d", name, len(gs.Distinct), len(ws.Distinct))
		}
		for i := range ws.Distinct {
			if gs.Distinct[i] != ws.Distinct[i] {
				t.Fatalf("%q: distinct[%d] = %q, want %q", name, i, gs.Distinct[i], ws.Distinct[i])
			}
		}
	}
	flat, err := pt.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	assertTableBits(t, src, flat)
}

func TestChunkEncodePreservesPartitioning(t *testing.T) {
	src := chunkFixture(t, 600)
	pt, err := PartitionBy(src, "d")
	if err != nil {
		t.Fatal(err)
	}
	cpt, err := pt.ChunkEncode(97)
	if err != nil {
		t.Fatal(err)
	}
	if cpt.NumRows() != pt.NumRows() || len(cpt.Parts) != len(pt.Parts) {
		t.Fatalf("shape: %d rows / %d parts, want %d / %d",
			cpt.NumRows(), len(cpt.Parts), pt.NumRows(), len(pt.Parts))
	}
	for i, part := range cpt.Parts {
		if part.Chunked == nil || part.Table != nil {
			t.Fatalf("part %d not chunk-backed", i)
		}
		if part.Key != pt.Parts[i].Key {
			t.Fatalf("part %d key %q, want %q", i, part.Key, pt.Parts[i].Key)
		}
		dec, err := part.Chunked.Decode()
		if err != nil {
			t.Fatal(err)
		}
		assertTableBits(t, pt.Parts[i].Table, dec)
	}
	wantFlat, err := pt.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	gotFlat, err := cpt.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	assertTableBits(t, wantFlat, gotFlat)
}
