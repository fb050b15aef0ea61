package relational

import (
	"testing"

	"raven/internal/data"
)

// TestDrainEmptySortPreservesTypes pins the typed-empty-result contract: a
// sort whose input is filtered down to zero batches must still emit the
// child schema's real column types, not all-Float64 placeholders.
func TestDrainEmptySortPreservesTypes(t *testing.T) {
	root := &Sort{
		Child: &Filter{
			Child: scanFixture(2),
			Pred:  NewBinOp(OpGt, Col("v"), Num(1000)),
		},
		Keys:  []SortKey{{Col: "k"}},
		Limit: -1,
	}
	out, err := Drain(root)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Fatalf("rows = %d, want 0", out.NumRows())
	}
	want := map[string]data.Type{"id": data.Int64, "v": data.Float64, "k": data.String}
	for name, typ := range want {
		c := out.Col(name)
		if c == nil {
			t.Fatalf("missing column %q in %v", name, out.Schema().Names())
		}
		if c.Type != typ {
			t.Errorf("column %q: type = %v, want %v", name, c.Type, typ)
		}
	}
}

// TestSchemaOfOperators covers the static schema walk across the operator
// zoo: scans (with aliasing and pruning), joins, projections with typed
// expressions, grouped aggregation and the parallel exchange.
func TestSchemaOfOperators(t *testing.T) {
	scan := scanFixture(2)
	scan.Alias = "t"
	s, ok := SchemaOf(scan)
	if !ok {
		t.Fatal("SchemaOf(Scan) not derivable")
	}
	wantScan := data.Schema{
		{Name: "t.id", Type: data.Int64},
		{Name: "t.v", Type: data.Float64},
		{Name: "t.k", Type: data.String},
	}
	assertSchema(t, "scan", s, wantScan)

	proj := &Project{Child: scanFixture(2), Exprs: []NamedExpr{
		{Name: "id", E: Col("id")},
		{Name: "name", E: Col("k")},
		{Name: "double", E: NewBinOp(OpMul, Col("v"), Num(2))},
		{Name: "flag", E: NewBinOp(OpGt, Col("v"), Num(25))},
		{Name: "lbl", E: Str("x")},
		{Name: "member", E: In(Col("k"), "a")},
	}}
	s, ok = SchemaOf(proj)
	if !ok {
		t.Fatal("SchemaOf(Project) not derivable")
	}
	assertSchema(t, "project", s, data.Schema{
		{Name: "id", Type: data.Int64},
		{Name: "name", Type: data.String},
		{Name: "double", Type: data.Float64},
		{Name: "flag", Type: data.Bool},
		{Name: "lbl", Type: data.String},
		{Name: "member", Type: data.Bool},
	})

	join := &HashJoin{Left: scanFixture(2), Right: scanFixture(2), LeftKey: "id", RightKey: "id"}
	s, ok = SchemaOf(join)
	if !ok || len(s) != 6 {
		t.Fatalf("SchemaOf(HashJoin): ok=%v len=%d", ok, len(s))
	}

	grp := groupAgg(scanFixture(2), []string{"k"},
		[]AggSpec{{Fn: AggCount, As: "n"}, {Fn: AggSum, Col: "v", As: "total"}}, 0)
	s, ok = SchemaOf(grp)
	if !ok {
		t.Fatal("SchemaOf(MergeGroupAggregate) not derivable")
	}
	assertSchema(t, "group", s, data.Schema{
		{Name: "k", Type: data.String},
		{Name: "n", Type: data.Float64},
		{Name: "total", Type: data.Float64},
	})

	// The exchange derives through its template chain down to the scan.
	par, err := Parallelize(&Filter{Child: bigScanFixture(t), Pred: NewBinOp(OpGt, Col("v"), Num(0))}, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := par.(*Exchange)
	if !ok {
		t.Fatalf("Parallelize produced %T, want *Exchange", par)
	}
	s, ok = SchemaOf(ex)
	if !ok {
		t.Fatal("SchemaOf(Exchange) not derivable")
	}
	if len(s) != 2 || s[1].Type != data.Float64 || s[0].Type != data.Int64 {
		t.Fatalf("exchange schema = %+v", s)
	}
}

// bigScanFixture is a scan over more rows than one morsel so Parallelize
// wraps it in an Exchange.
func bigScanFixture(t *testing.T) *Scan {
	t.Helper()
	n := 100
	ids := make([]int64, n)
	vals := make([]float64, n)
	for i := range ids {
		ids[i] = int64(i)
		vals[i] = float64(i)
	}
	tab := data.MustNewTable("big", data.NewInt("id", ids), data.NewFloat("v", vals))
	return NewScan(data.SinglePartition(tab), "", nil, 10)
}

func assertSchema(t *testing.T, what string, got, want data.Schema) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: schema = %+v, want %+v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s[%d] = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}
