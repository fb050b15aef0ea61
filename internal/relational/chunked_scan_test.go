package relational

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"raven/internal/data"
)

// Chunk-native scan differential: scanning a chunk-backed copy of a
// partitioned table must produce results byte-identical — float bits,
// row order, dictionary representation — to scanning the in-memory
// original, serial and at every DOP. That holds because chunked batches
// are cut at BatchSize boundaries (never chunk boundaries), so every
// downstream fold sees the same batch shapes.

// chunkScanChunkRows is deliberately misaligned with the 128-row batches
// so most batches span a chunk boundary.
const chunkScanChunkRows = 97

// chunkScanFixture mirrors breakerJoinFixture, optionally dictionary-
// encoding the string columns, and returns the probe and dimension
// tables partitioned exactly as the breaker tests expect.
func chunkScanFixture(t *testing.T, n, dimRows int, dict bool) (*data.PartitionedTable, *data.PartitionedTable) {
	t.Helper()
	ids := make([]int64, n)
	keys := make([]int64, n)
	vs := make([]float64, n)
	grp := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		keys[i] = int64(i % (dimRows * 2))
		vs[i] = float64(i%89) * 0.1 // binary-inexact: catches re-rounding
		grp[i] = []string{"a", "b", "c"}[i*3/n]
	}
	fact := data.MustNewTable("fact",
		data.NewInt("id", ids), data.NewInt("k", keys),
		data.NewFloat("v", vs), data.NewString("grp", grp))
	if dict {
		fact = data.DictEncodeTable(fact)
	}
	pf, err := data.PartitionBy(fact, "grp")
	if err != nil {
		t.Fatal(err)
	}
	dk := make([]int64, dimRows)
	dv := make([]float64, dimRows)
	for i := 0; i < dimRows; i++ {
		dk[i] = int64(i)
		dv[i] = float64(i) * 1.5
	}
	dim := data.SinglePartition(data.MustNewTable("dim",
		data.NewInt("dk", dk), data.NewFloat("dv", dv)))
	return pf, dim
}

// chunkScanShapes builds every plan shape under test over the given
// (probe, dim) pair — leaf scan, streaming filter/project, and all three
// pipeline breakers.
func chunkScanShapes(pf, dim *data.PartitionedTable) map[string]func() Operator {
	return map[string]func() Operator{
		"scan": func() Operator { return NewScan(pf, "", nil, 128) },
		"filter-project": func() Operator {
			scan := NewScan(pf, "", []string{"id", "v", "grp"}, 128)
			filter := &Filter{Child: scan, Pred: NewBinOp(OpLt, Col("v"), Num(6))}
			return &Project{Child: filter, Exprs: []NamedExpr{
				{Name: "id", E: Col("id")},
				{Name: "v2", E: NewBinOp(OpMul, Col("v"), Num(2))},
				{Name: "grp", E: Col("grp")},
			}}
		},
		"join": func() Operator {
			return &HashJoin{
				Left:    NewScan(pf, "", nil, 128),
				Right:   NewScan(dim, "", nil, 128),
				LeftKey: "k", RightKey: "dk",
			}
		},
		"group": func() Operator {
			return groupAgg(NewScan(pf, "", nil, 128), []string{"grp", "k"}, []AggSpec{
				{Fn: AggCount, As: "n"},
				{Fn: AggSum, Col: "v", As: "sv"},
				{Fn: AggAvg, Col: "v", As: "av"},
			}, 0)
		},
		"sort": func() Operator {
			return &Sort{
				Child: NewScan(pf, "", nil, 128),
				Keys:  []SortKey{{Col: "v", Desc: true}, {Col: "grp"}, {Col: "id"}},
				Limit: -1,
			}
		},
	}
}

// assertTablesBits is the bitwise-strict version of assertTablesEqual:
// float columns compare by bit pattern and the dictionary-vs-raw
// representation must match, so a chunked scan cannot silently widen or
// decode columns differently from the in-memory scan.
func assertTablesBits(t *testing.T, want, got *data.Table) {
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
		if gc.Type != wc.Type || (want.NumRows() > 0 && gc.IsDict() != wc.IsDict()) {
			t.Fatalf("column %q: type/repr %v/dict=%v, want %v/dict=%v",
				wc.Name, gc.Type, gc.IsDict(), wc.Type, wc.IsDict())
		}
		for i := 0; i < wc.Len(); i++ {
			if wc.Type == data.Float64 {
				if math.Float64bits(wc.F64[i]) != math.Float64bits(gc.F64[i]) {
					t.Fatalf("column %q row %d: float bits %x, want %x",
						wc.Name, i, math.Float64bits(gc.F64[i]), math.Float64bits(wc.F64[i]))
				}
				continue
			}
			if wc.AsString(i) != gc.AsString(i) {
				t.Fatalf("column %q row %d: %s, want %s",
					wc.Name, i, gc.AsString(i), wc.AsString(i))
			}
		}
	}
}

func chunkScanDOPs() []int {
	dops := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		dops = append(dops, n)
	}
	return dops
}

func TestChunkedScanDifferential(t *testing.T) {
	for _, dict := range []bool{false, true} {
		name := "raw"
		if dict {
			name = "dict"
		}
		t.Run(name, func(t *testing.T) {
			pf, dim := chunkScanFixture(t, 6000, 500, dict)
			cpf, err := pf.ChunkEncode(chunkScanChunkRows)
			if err != nil {
				t.Fatal(err)
			}
			cdim, err := dim.ChunkEncode(chunkScanChunkRows)
			if err != nil {
				t.Fatal(err)
			}
			mem := chunkScanShapes(pf, dim)
			chunked := chunkScanShapes(cpf, cdim)
			for shape, mkMem := range mem {
				mkChunk := chunked[shape]
				t.Run(shape, func(t *testing.T) {
					want, err := Drain(mkMem())
					if err != nil {
						t.Fatal(err)
					}
					assertAggMatchesReference(t, shape, mkMem(), want)
					t.Run("serial", func(t *testing.T) {
						got, err := Drain(mkChunk())
						if err != nil {
							t.Fatal(err)
						}
						assertTablesBits(t, want, got)
					})
					for _, dop := range chunkScanDOPs() {
						t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
							got, err := Drain(mustParallelize(t, mkChunk(), dop, 128))
							if err != nil {
								t.Fatal(err)
							}
							assertTablesBits(t, want, got)
						})
					}
				})
			}
		})
	}
}

// TestChunkedScanSpillDifferential drives the pipeline breakers from
// chunk-native scans under a budget small enough that every breaker
// spills: chunk decoding and out-of-core execution composed together
// must still be byte-identical to the unbudgeted in-memory run, and no
// spill file may survive Cleanup.
func TestChunkedScanSpillDifferential(t *testing.T) {
	pf, dim := chunkScanFixture(t, 6000, 500, false)
	cpf, err := pf.ChunkEncode(chunkScanChunkRows)
	if err != nil {
		t.Fatal(err)
	}
	cdim, err := dim.ChunkEncode(chunkScanChunkRows)
	if err != nil {
		t.Fatal(err)
	}
	mem := chunkScanShapes(pf, dim)
	chunked := chunkScanShapes(cpf, cdim)
	for _, shape := range []string{"join", "group", "sort"} {
		mkMem, mkChunk := mem[shape], chunked[shape]
		t.Run(shape, func(t *testing.T) {
			want, err := Drain(mkMem())
			if err != nil {
				t.Fatal(err)
			}
			run := func(t *testing.T, root Operator) {
				dir := t.TempDir()
				mb := oneQueryBudget(spillBudget, dir)
				SetBudget(mb, root)
				got, err := Drain(root)
				if err != nil {
					t.Fatal(err)
				}
				if mb.Spills() == 0 || mb.SpilledBytes() == 0 {
					t.Fatalf("budget %d did not spill (spills=%d bytes=%d)",
						spillBudget, mb.Spills(), mb.SpilledBytes())
				}
				assertTablesBits(t, want, got)
				mb.Cleanup()
				assertNoSpillFiles(t, dir)
			}
			t.Run("serial", func(t *testing.T) { run(t, mkChunk()) })
			for _, dop := range chunkScanDOPs() {
				t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
					run(t, mustParallelize(t, mkChunk(), dop, 128))
				})
			}
		})
	}
}
