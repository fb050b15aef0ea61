package data

import (
	"math"
	"strings"
	"testing"
)

// Round-trip and storage tests for the compressed block encoding, the
// chunked table layer and the streaming chunked CSV loader.

// assertColumnsIdentical compares two columns value-for-value through
// AsString (exact for every type, including float bit patterns).
func assertColumnsIdentical(t *testing.T, want, got *Column) {
	t.Helper()
	if got.Type != want.Type || got.Len() != want.Len() {
		t.Fatalf("column %q: got %s×%d, want %s×%d",
			want.Name, got.Type, got.Len(), want.Type, want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if want.AsString(i) != got.AsString(i) {
			t.Fatalf("column %q row %d: %q != %q", want.Name, i, got.AsString(i), want.AsString(i))
		}
	}
}

func roundTrip(t *testing.T, c *Column) (*Column, BlockMeta, []byte) {
	t.Helper()
	m, raw, err := EncodeColumn(c)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeColumn(m, raw)
	if err != nil {
		t.Fatal(err)
	}
	assertColumnsIdentical(t, c, out)
	assertRangesMatch(t, m, raw, out)
	return out, m, raw
}

// assertRangesMatch decodes every row range [lo, hi) of the block through
// DecodeColumnRange and checks each bit for bit against the same Slice of
// the full decode. Exhaustive ranges start at every bit phase and end
// inside the payload's last 7 bytes, where the word-at-a-time unpacker
// falls back to its bit loop.
func assertRangesMatch(t *testing.T, m BlockMeta, raw []byte, full *Column) {
	t.Helper()
	for lo := 0; lo <= m.Rows; lo++ {
		for hi := lo; hi <= m.Rows; hi++ {
			got, err := DecodeColumnRange(m, raw, lo, hi)
			if err != nil {
				t.Fatalf("DecodeColumnRange(%d,%d) of %q: %v", lo, hi, m.Name, err)
			}
			assertColumnBits(t, full.Slice(lo, hi), got, true)
		}
	}
	if _, err := DecodeColumnRange(m, raw, 0, m.Rows+1); err == nil {
		t.Fatalf("block %q: range past its rows accepted", m.Name)
	}
}

func TestEncodeIntFOR(t *testing.T) {
	// General case: negatives, non-trivial deltas.
	_, m, raw := roundTrip(t, NewInt("a", []int64{-5, 1000, 3, -5, 77}))
	if m.Enc != EncIntFOR || m.Min != -5 {
		t.Fatalf("meta = %+v, want FOR base -5", m)
	}
	if len(raw) >= 5*8 {
		t.Fatalf("FOR block is %d bytes, no smaller than raw", len(raw))
	}
	// Constant block: width 0, empty payload.
	_, m, raw = roundTrip(t, NewInt("c", []int64{42, 42, 42, 42}))
	if m.Width != 0 || len(raw) != 0 {
		t.Fatalf("constant block width=%d payload=%d, want 0/0", m.Width, len(raw))
	}
	// Full-range extremes force 64-bit deltas through two's-complement
	// wraparound (MaxInt64 - MinInt64 overflows signed arithmetic).
	roundTrip(t, NewInt("x", []int64{math.MinInt64, math.MaxInt64, 0, -1, math.MinInt64}))
	// Every width class of the range unpacker: 0, byte-aligned and odd
	// widths, the word path's 56-bit ceiling and the bit loop above it.
	// 41 rows put the tail of every payload inside its last 7 bytes.
	for _, w := range []uint8{0, 1, 7, 8, 13, 31, 32, 56, 57, 63, 64} {
		mask := uint64(1)<<w - 1
		base := int64(-12345)
		if w >= 63 {
			base = math.MinInt64
		}
		vals := make([]int64, 41)
		x := uint64(0x9E3779B97F4A7C15)
		for i := range vals {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			d := x & mask
			switch i {
			case 3:
				d = 0
			case 17:
				d = mask
			}
			vals[i] = int64(uint64(base) + d)
		}
		_, m, _ := roundTrip(t, NewInt("w", vals))
		if m.Width != w || m.Min != base {
			t.Fatalf("width %d fixture encoded at width %d base %d", w, m.Width, m.Min)
		}
	}
}

func TestEncodeFloatBoolString(t *testing.T) {
	roundTrip(t, NewFloat("f", []float64{1.5, math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0}))
	roundTrip(t, NewBool("b", []bool{true, false, true, true, false, false, true}))
	roundTrip(t, NewString("s", []string{"x", "", "日本語", strings.Repeat("y", 300), "x"}))
	// A string block cut inside row 3 fails on every range that reaches
	// row 3, and reports that row; ranges ending before it still decode.
	m, raw, err := EncodeColumn(NewString("s", []string{"a", "bb", "ccc", "dddd", "e"}))
	if err != nil {
		t.Fatal(err)
	}
	raw = raw[:len(raw)-5]
	if _, err := DecodeColumnRange(m, raw, 0, 3); err != nil {
		t.Fatalf("rows before the cut: %v", err)
	}
	for _, r := range [][2]int{{3, 4}, {2, 5}, {0, 5}} {
		if _, err := DecodeColumnRange(m, raw, r[0], r[1]); err == nil || !strings.Contains(err.Error(), "truncated at row 3") {
			t.Fatalf("range %v of truncated block: err = %v", r, err)
		}
	}
	// A short float payload and an unknown encoding fail on any range.
	m, raw, err = EncodeColumn(NewFloat("f", []float64{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeColumnRange(m, raw[:20], 0, 1); err == nil {
		t.Fatal("short float payload accepted")
	}
	m.Enc = 99
	if _, err := DecodeColumnRange(m, raw, 1, 2); err == nil {
		t.Fatal("unknown encoding accepted")
	}
}

func TestEncodeDictKeepsPointerIdentity(t *testing.T) {
	c := DictEncode(NewString("g", []string{"a", "b", "a", "c", "b"}))
	if c.Dict == nil {
		t.Fatal("fixture not dict-encoded")
	}
	out, m, _ := roundTrip(t, c)
	if m.Enc != EncDictCodes {
		t.Fatalf("enc = %v, want EncDictCodes", m.Enc)
	}
	if out.Dict != c.Dict {
		t.Fatal("decode did not preserve the dictionary pointer")
	}
	// A code outside the dictionary fails every range that covers its
	// row, naming the row within the block; other ranges still decode.
	codes := make([]string, 20)
	for i := range codes {
		codes[i] = []string{"a", "b", "c"}[i%3]
	}
	m, raw, err := EncodeColumn(DictEncode(NewString("g", codes)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Width != 2 {
		t.Fatalf("fixture width = %d, want 2", m.Width)
	}
	const bad = 13
	raw[bad*2/8] |= 3 << (bad * 2 % 8) // code 3 in a 3-entry dictionary
	if _, err := DecodeColumnRange(m, raw, 0, bad); err != nil {
		t.Fatalf("range before the bad code: %v", err)
	}
	for _, r := range [][2]int{{bad, bad + 1}, {10, 16}, {0, 20}} {
		if _, err := DecodeColumnRange(m, raw, r[0], r[1]); err == nil || !strings.Contains(err.Error(), "row 13:") {
			t.Fatalf("range %v over the bad code: err = %v", r, err)
		}
	}
}

func TestDecodeValidityBitmap(t *testing.T) {
	c := NewInt("n", []int64{7, 0, 9, 0})
	m, raw, err := EncodeColumn(c)
	if err != nil {
		t.Fatal(err)
	}
	// Mark rows 1 and 3 absent: they must decode to the zero value even
	// though the payload carries other numbers there.
	m.Valid = PackBits([]bool{true, false, true, false})
	out, err := DecodeColumn(m, raw)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{7, 0, 9, 0}
	for i, w := range want {
		if out.I64[i] != w {
			t.Fatalf("row %d = %d, want %d", i, out.I64[i], w)
		}
	}
	// Ranges read the bitmap at their own rows: every encoding, with nulls
	// inside, before and after each range.
	valid := make([]bool, 23)
	for i := range valid {
		valid[i] = i%4 != 1 && i != 10
	}
	ints := make([]int64, 23)
	floats := make([]float64, 23)
	bools := make([]bool, 23)
	strs := make([]string, 23)
	for i := range ints {
		ints[i] = int64(i*i - 40)
		floats[i] = float64(i) * 0.3
		bools[i] = i%3 != 2
		strs[i] = strings.Repeat("z", i%5)
	}
	for _, c := range []*Column{
		NewInt("i", ints), NewFloat("f", floats), NewBool("b", bools),
		NewString("s", strs), DictEncode(NewString("d", strs)),
	} {
		m, raw, err := EncodeColumn(c)
		if err != nil {
			t.Fatal(err)
		}
		m.Valid = PackBits(valid)
		full, err := DecodeColumn(m, raw)
		if err != nil {
			t.Fatal(err)
		}
		for i, ok := range valid {
			if !ok && !decodedZero(full, i) {
				t.Fatalf("column %q null row %d decoded as %q", c.Name, i, full.AsString(i))
			}
		}
		assertRangesMatch(t, m, raw, full)
	}
}

// decodedZero reports whether row i of a decoded column holds the zero
// value a null decodes to (dict rows keep their code).
func decodedZero(c *Column, i int) bool {
	switch c.Type {
	case Int64:
		return c.I64[i] == 0
	case Float64:
		return c.F64[i] == 0
	case Bool:
		return !c.B[i]
	}
	return c.IsDict() || c.Str[i] == ""
}

func TestChunkedBuilderRoundTrip(t *testing.T) {
	n := 1000
	ids := make([]int64, n)
	vs := make([]float64, n)
	gs := make([]string, n)
	for i := range ids {
		ids[i] = int64(i)
		vs[i] = float64(i) * 0.5
		gs[i] = []string{"a", "b", "c"}[i%3]
	}
	src := MustNewTable("t", NewInt("id", ids), NewFloat("v", vs), NewString("g", gs))
	b := NewChunkedBuilder("t", 128)
	// Append in uneven slices to exercise chunk cutting across appends.
	for lo := 0; lo < n; {
		hi := lo + 77
		if hi > n {
			hi = n
		}
		if err := b.Append(src.Slice(lo, hi)); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	ct, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if ct.NumRows() != n {
		t.Fatalf("rows = %d, want %d", ct.NumRows(), n)
	}
	if want := (n + 127) / 128; ct.NumChunks() != want {
		t.Fatalf("chunks = %d, want %d", ct.NumChunks(), want)
	}
	whole, err := ct.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range src.Cols {
		assertColumnsIdentical(t, c, whole.Col(c.Name))
	}
	// The sequential id column and the 3-value group column compress.
	if cb := ct.CompressedBytes(); cb >= src.ByteSize() {
		t.Errorf("compressed %d bytes >= raw %d", cb, src.ByteSize())
	}
	// Per-morsel reader over a column subset.
	r := ct.Reader([]string{"id", "g"})
	rows := 0
	for {
		batch, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			break
		}
		if batch.NumCols() != 2 {
			t.Fatalf("reader batch has %d cols, want 2", batch.NumCols())
		}
		for i := 0; i < batch.NumRows(); i++ {
			if got, want := batch.Col("id").I64[i], ids[rows+i]; got != want {
				t.Fatalf("row %d id = %d, want %d", rows+i, got, want)
			}
		}
		rows += batch.NumRows()
	}
	if rows != n {
		t.Fatalf("reader yielded %d rows, want %d", rows, n)
	}
	// A missing requested column errors rather than silently narrowing.
	if _, err := ct.Chunk(0).Decode("t", []string{"nope"}); err == nil {
		t.Fatal("decoding a missing column did not error")
	}
}

func TestReadCSVChunkedMatchesReadCSV(t *testing.T) {
	csv := "id,score,grp,flag\n"
	var sb strings.Builder
	sb.WriteString(csv)
	for i := 0; i < 500; i++ {
		g := []string{"north", "south", "east"}[i%3]
		sb.WriteString(
			strings.Join([]string{
				itoa(i), "0." + itoa(i%97), g, []string{"true", "false"}[i%2],
			}, ",") + "\n")
	}
	want, err := ReadCSV("t", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ReadCSVChunked("t", strings.NewReader(sb.String()), 64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ct.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range want.Cols {
		assertColumnsIdentical(t, c, got.Col(c.Name))
	}
	// One dictionary spans all chunks of a string column, patched in after
	// streaming froze it.
	g0, err := ct.Chunk(0).Decode("t", []string{"grp"})
	if err != nil {
		t.Fatal(err)
	}
	gLast, err := ct.Chunk(ct.NumChunks()-1).Decode("t", []string{"grp"})
	if err != nil {
		t.Fatal(err)
	}
	if g0.Col("grp").Dict == nil || g0.Col("grp").Dict != gLast.Col("grp").Dict {
		t.Fatal("chunks do not share one dictionary")
	}
}

func TestReadCSVChunkedNulls(t *testing.T) {
	// Empty numeric/bool fields become nulls (decode to zero values);
	// plain ReadCSV rejects the same input.
	csv := "id,v,ok\n1,2.5,true\n,,\n3,,false\n"
	if _, err := ReadCSV("t", strings.NewReader(csv)); err == nil {
		t.Fatal("ReadCSV accepted empty numeric fields")
	}
	ct, err := ReadCSVChunked("t", strings.NewReader(csv), 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ct.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Col("id").I64; got[0] != 1 || got[1] != 0 || got[2] != 3 {
		t.Fatalf("id = %v, want [1 0 3]", got)
	}
	if got := out.Col("v").F64; got[0] != 2.5 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("v = %v, want [2.5 0 0]", got)
	}
	if got := out.Col("ok").B; !got[0] || got[1] || got[2] {
		t.Fatalf("ok = %v, want [true false false]", got)
	}
	// Headers-only input: zero chunks, schema preserved.
	ct, err = ReadCSVChunked("t", strings.NewReader("a,b\n"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if ct.NumChunks() != 0 || ct.NumRows() != 0 || len(ct.Schema()) != 2 {
		t.Fatalf("headers-only: chunks=%d rows=%d schema=%d", ct.NumChunks(), ct.NumRows(), len(ct.Schema()))
	}
}

// itoa is a tiny strconv.Itoa stand-in keeping the fixture loop terse.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

// TestFlattenPropagatesAppendError is the regression test for the
// silently-ignored AppendFrom error: partitions whose columns disagree
// must surface the error instead of returning a corrupt concatenation.
func TestFlattenPropagatesAppendError(t *testing.T) {
	p := &PartitionedTable{Name: "bad", Parts: []*Partition{
		{Table: MustNewTable("p1", NewFloat("v", []float64{1, 2}))},
		{Table: MustNewTable("p2", NewInt("v", []int64{3}))},
	}}
	if _, err := p.Flatten(); err == nil {
		t.Fatal("Flatten over mismatched partitions did not error")
	}
	// Partitions with per-partition dictionaries (different pointers) are
	// legal: flattening decodes, it must not error or drop rows.
	c1 := DictEncode(NewString("g", []string{"a", "b"}))
	c2 := DictEncode(NewString("g", []string{"b", "c"}))
	if c1.Dict == c2.Dict {
		t.Fatal("fixture dictionaries unexpectedly shared")
	}
	pd := &PartitionedTable{Name: "dicts", Parts: []*Partition{
		{Table: MustNewTable("p1", c1)},
		{Table: MustNewTable("p2", c2)},
	}}
	flat, err := pd.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "b", "c"}
	if flat.NumRows() != len(want) {
		t.Fatalf("rows = %d, want %d", flat.NumRows(), len(want))
	}
	for i, w := range want {
		if got := flat.Col("g").AsString(i); got != w {
			t.Fatalf("row %d = %q, want %q", i, got, w)
		}
	}
}
