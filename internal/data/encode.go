package data

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Compressed column-block encoding — the storage format shared by the
// chunked table layer (chunked.go) and the relational spill files. A
// column block is (BlockMeta, payload bytes): the metadata carries
// everything needed to decode the payload back into an identical Column.
//
// Encodings are chosen from the column's physical type:
//
//	Int64         → frame-of-reference + bit-packing: the block minimum is
//	                subtracted and the non-negative deltas are packed at
//	                the smallest width that holds the block maximum. A
//	                constant block packs at width 0 (no payload at all).
//	String (dict) → the int32 code vector bit-packed at the width of the
//	                block's largest code; the shared *Dictionary travels in
//	                the metadata by pointer. Blocks therefore live only as
//	                long as the process — exactly the lifetime of spill
//	                files and chunked tables, both per-process artifacts.
//	Bool          → one bit per row, LSB-first.
//	Float64       → raw little-endian bits (doubles rarely compress
//	                without loss; exact round-trip is the contract here).
//	String (raw)  → uvarint-length-prefixed bytes.
//
// Every block may carry a validity bitmap (Meta.Valid, 1 = present): rows
// marked absent decode to the type's zero value. In-memory Columns have
// no null representation, so EncodeColumn emits all-valid blocks; the
// bitmap exists for loaders (ReadCSVChunked maps empty numeric CSV fields
// to nulls) and round-trips through the format.

// Encoding identifies the physical encoding of one column block.
type Encoding uint8

const (
	// EncRawFloat is raw little-endian float64 bits.
	EncRawFloat Encoding = iota
	// EncIntFOR is frame-of-reference bit-packed Int64.
	EncIntFOR
	// EncDictCodes is bit-packed dictionary codes over a shared Dictionary.
	EncDictCodes
	// EncBits is a one-bit-per-row bitmap (Bool columns).
	EncBits
	// EncRawString is uvarint-length-prefixed raw string bytes.
	EncRawString
)

// BlockMeta describes one encoded column block. Metadata stays in process
// memory (only the payload is written to disk by spill files), so the
// dictionary reference is the live pointer — preserving the column's
// representation, and with it every pointer-identity cache keyed on it,
// across an encode/decode round trip.
type BlockMeta struct {
	Name string
	Type Type
	Rows int
	Enc  Encoding
	// Min is the frame-of-reference base of EncIntFOR blocks.
	Min int64
	// Width is the packed bit width of EncIntFOR / EncDictCodes payloads;
	// 0 means every value equals the base (no payload).
	Width uint8
	// Dict is the shared dictionary of EncDictCodes blocks.
	Dict *Dictionary
	// Valid is the optional validity bitmap (LSB-first, 1 = present);
	// nil means every row is valid.
	Valid []byte
}

// EncodeColumn encodes a column into a block, choosing the encoding from
// its physical representation. All rows are marked valid.
func EncodeColumn(c *Column) (BlockMeta, []byte, error) {
	m := BlockMeta{Name: c.Name, Type: c.Type, Rows: c.Len()}
	switch {
	case c.Type == Int64:
		m.Enc = EncIntFOR
		if len(c.I64) == 0 {
			return m, nil, nil
		}
		lo, hi := c.I64[0], c.I64[0]
		for _, v := range c.I64[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		m.Min = lo
		// Two's-complement subtraction in uint64 gives the true
		// non-negative delta for any int64 pair with hi >= lo.
		m.Width = bitsFor(uint64(hi) - uint64(lo))
		deltas := make([]uint64, len(c.I64))
		for i, v := range c.I64 {
			deltas[i] = uint64(v) - uint64(lo)
		}
		return m, packUints(deltas, m.Width), nil
	case c.IsDict():
		m.Enc = EncDictCodes
		m.Dict = c.Dict
		var maxCode uint64
		for _, code := range c.Codes {
			if uint64(code) > maxCode {
				maxCode = uint64(code)
			}
		}
		m.Width = bitsFor(maxCode)
		codes := make([]uint64, len(c.Codes))
		for i, code := range c.Codes {
			codes[i] = uint64(code)
		}
		return m, packUints(codes, m.Width), nil
	case c.Type == Bool:
		m.Enc = EncBits
		return m, PackBits(c.B), nil
	case c.Type == Float64:
		m.Enc = EncRawFloat
		raw := make([]byte, 8*len(c.F64))
		for i, v := range c.F64 {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
		}
		return m, raw, nil
	case c.Type == String:
		m.Enc = EncRawString
		var raw []byte
		for _, s := range c.Str {
			raw = binary.AppendUvarint(raw, uint64(len(s)))
			raw = append(raw, s...)
		}
		return m, raw, nil
	}
	return m, nil, fmt.Errorf("data: cannot encode column %q of type %s", c.Name, c.Type)
}

// DecodeColumn decodes a block back into a column identical to the one
// encoded: same type, same values, same representation (dictionary blocks
// decode to codes over the same shared *Dictionary). Rows the validity
// bitmap marks absent decode to the type's zero value.
func DecodeColumn(m BlockMeta, raw []byte) (*Column, error) {
	return DecodeColumnRange(m, raw, 0, m.Rows)
}

// DecodeColumnRange decodes only rows [lo, hi) of a block, producing the
// same column as slicing DecodeColumn's result: packed ints and dict codes
// are unpacked from their bit offset, floats read at their byte offset,
// bools and the validity bitmap at bit lo+i, and raw strings skip lo
// length prefixes. Errors name the absolute row within the block.
func DecodeColumnRange(m BlockMeta, raw []byte, lo, hi int) (*Column, error) {
	if lo < 0 || hi > m.Rows || lo > hi {
		return nil, fmt.Errorf("data: decode range [%d,%d) of block %q with %d rows", lo, hi, m.Name, m.Rows)
	}
	if m.Valid != nil && len(m.Valid) < (m.Rows+7)/8 {
		return nil, fmt.Errorf("data: validity bitmap of block %q: %d bytes for %d rows", m.Name, len(m.Valid), m.Rows)
	}
	n := hi - lo
	c := &Column{Name: m.Name, Type: m.Type}
	switch m.Enc {
	case EncIntFOR:
		if err := checkPacked(m, raw); err != nil {
			return nil, err
		}
		c.I64 = make([]int64, n)
		unpackRange(c.I64, raw, lo, m.Width, uint64(m.Min))
	case EncDictCodes:
		if m.Dict == nil {
			return nil, fmt.Errorf("data: dict-coded block %q lacks its dictionary", m.Name)
		}
		if m.Width > 31 {
			return nil, fmt.Errorf("data: dict-coded block %q: code width %d exceeds 31", m.Name, m.Width)
		}
		if err := checkPacked(m, raw); err != nil {
			return nil, err
		}
		c.Dict = m.Dict
		c.Codes = make([]int32, n)
		unpackRange(c.Codes, raw, lo, m.Width, 0)
		limit := int32(m.Dict.Len())
		for i, code := range c.Codes {
			if code >= limit {
				return nil, fmt.Errorf("data: block %q row %d: code %d outside dictionary of %d", m.Name, lo+i, code, limit)
			}
		}
	case EncBits:
		if len(raw) < (m.Rows+7)/8 {
			return nil, fmt.Errorf("data: bool block %q: %d bytes for %d rows", m.Name, len(raw), m.Rows)
		}
		c.B = make([]bool, n)
		for i := range c.B {
			c.B[i] = BitAt(raw, lo+i)
		}
	case EncRawFloat:
		if len(raw) < 8*m.Rows {
			return nil, fmt.Errorf("data: float block %q: %d bytes for %d rows", m.Name, len(raw), m.Rows)
		}
		c.F64 = make([]float64, n)
		raw = raw[8*lo:]
		for i := range c.F64 {
			c.F64[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	case EncRawString:
		c.Str = make([]string, 0, n)
		for i := 0; i < hi; i++ {
			sz, used := binary.Uvarint(raw)
			if used <= 0 || uint64(len(raw)-used) < sz {
				return nil, fmt.Errorf("data: string block %q truncated at row %d", m.Name, i)
			}
			raw = raw[used:]
			if i >= lo {
				c.Str = append(c.Str, string(raw[:sz]))
			}
			raw = raw[sz:]
		}
	default:
		return nil, fmt.Errorf("data: unknown block encoding %d for %q", m.Enc, m.Name)
	}
	if m.Valid != nil {
		zeroInvalid(c, m.Valid, lo)
	}
	return c, nil
}

// checkPacked verifies a bit-packed payload holds every row of the block.
func checkPacked(m BlockMeta, raw []byte) error {
	if need := (m.Rows*int(m.Width) + 7) / 8; len(raw) < need {
		return fmt.Errorf("data: packed block %q: %d bytes for %d rows of width %d", m.Name, len(raw), m.Rows, m.Width)
	}
	return nil
}

// zeroInvalid forces rows the validity bitmap marks absent to the type's
// zero value, so a null survives the round trip deterministically no
// matter what the encoder packed in its slot. Row i of c is row lo+i of
// the block the bitmap describes.
func zeroInvalid(c *Column, valid []byte, lo int) {
	for i := 0; i < c.Len(); i++ {
		if BitAt(valid, lo+i) {
			continue
		}
		switch c.Type {
		case Float64:
			c.F64[i] = 0
		case Int64:
			c.I64[i] = 0
		case Bool:
			c.B[i] = false
		case String:
			if c.Dict == nil {
				c.Str[i] = ""
			}
		}
	}
}

// bitsFor returns the number of bits needed to represent x (0 for x == 0,
// the constant-block case).
func bitsFor(x uint64) uint8 {
	var n uint8
	for x != 0 {
		n++
		x >>= 1
	}
	return n
}

// packUints packs vals at the given bit width into a little-endian
// LSB-first bit stream. Width 0 packs nothing (all values are zero).
func packUints(vals []uint64, width uint8) []byte {
	if width == 0 {
		return nil
	}
	out := make([]byte, (len(vals)*int(width)+7)/8)
	bit := 0
	for _, v := range vals {
		for b := 0; b < int(width); b++ {
			if v&(1<<b) != 0 {
				out[bit>>3] |= 1 << (bit & 7)
			}
			bit++
		}
	}
	return out
}

// unpackRange unpacks the len(dst) width-bit values starting at value lo
// of a packUints stream, adding base to each. Values are read a word at a
// time: 8 bytes at the value's byte offset, shifted and masked. A bit loop
// covers the stream's last 7 bytes and widths above 56, where one word
// cannot hold a value at every bit phase. The payload must hold every
// value (checkPacked).
func unpackRange[T int32 | int64](dst []T, raw []byte, lo int, width uint8, base uint64) {
	if width == 0 {
		for i := range dst {
			dst[i] = T(base)
		}
		return
	}
	w := int(width)
	mask := uint64(1)<<width - 1 // width 64: the shift yields 0, mask all ones
	bit := lo * w
	i := 0
	if width <= 56 {
		for ; i < len(dst); i++ {
			b := bit >> 3
			if b+8 > len(raw) {
				break
			}
			dst[i] = T(base + binary.LittleEndian.Uint64(raw[b:])>>(bit&7)&mask)
			bit += w
		}
	}
	for ; i < len(dst); i++ {
		var v uint64
		for k := 0; k < w; k++ {
			if BitAt(raw, bit+k) {
				v |= 1 << k
			}
		}
		dst[i] = T(base + v)
		bit += w
	}
}

// PackBits packs a bool slice one bit per entry, LSB-first — the shared
// layout of Bool payloads and validity bitmaps.
func PackBits(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			out[i>>3] |= 1 << (i & 7)
		}
	}
	return out
}

// BitAt reads bit i of an LSB-first bitmap.
func BitAt(raw []byte, i int) bool {
	return raw[i>>3]&(1<<(i&7)) != 0
}
