package coding

import (
	"errors"
	"fmt"
	"math/rand"

	"omnc/internal/gf16"
	"omnc/internal/gf256"
)

// Field selects the Galois field coefficients are drawn from. The zero value
// is Field8 — GF(2^8), the paper's field — so existing configurations and
// all default-field runs are bit-identical to builds without the option.
// Field16 codes over GF(2^16): random combinations collide with probability
// ~1/65536 instead of ~1/256, at the price of doubling the coefficient
// overhead per packet (CoeffBytes).
type Field int

const (
	// Field8 is GF(2^8) with byte coefficients, the default.
	Field8 Field = iota
	// Field16 is GF(2^16) with two-byte little-endian coefficients.
	Field16

	fieldCount
)

// ErrInvalidField reports a field value or name outside the supported set.
var ErrInvalidField = errors.New("coding: invalid field")

// String returns the canonical flag spelling ("8" or "16"); it round-trips
// through ParseField.
func (f Field) String() string {
	switch f {
	case Field8:
		return "8"
	case Field16:
		return "16"
	default:
		return fmt.Sprintf("field(%d)", int(f))
	}
}

// Valid reports whether f is one of the defined fields.
func (f Field) Valid() bool { return f >= 0 && f < fieldCount }

// ParseField maps a -field flag value to its Field; the empty string keeps
// the GF(2^8) default. Unknown names return an error satisfying
// errors.Is(err, ErrInvalidField).
func ParseField(name string) (Field, error) {
	switch name {
	case "", "8":
		return Field8, nil
	case "16":
		return Field16, nil
	}
	return 0, fmt.Errorf("%w: %q (want 8 or 16)", ErrInvalidField, name)
}

// elemSize returns the packed size of one coefficient in bytes.
func (f Field) elemSize() int {
	if f == Field16 {
		return 2
	}
	return 1
}

// fieldOps is a field resolved into direct function pointers — the
// coefficient-level layer beneath Encoder and rref. Each field has exactly
// one bulk kernel: the Field8 row calls gf256's production functions (the
// full-table row kernel) and the Field16 row calls gf16's; nothing here or
// above selects a kernel. Coefficients and payloads are byte slices holding
// packed field elements; all values travel as uint32 to cover both element
// widths.
type fieldOps struct {
	field    Field
	mulAdd   func(dst, src []byte, c uint32)
	mul      func(dst, src []byte, c uint32)
	inv      func(c uint32) uint32
	elem     func(b []byte, i int) uint32
	setElem  func(b []byte, i int, v uint32)
	randElem func(rng *rand.Rand) uint32
}

// fieldOpsTable is indexed by Field.
var fieldOpsTable = [fieldCount]fieldOps{
	Field8: {
		field:    Field8,
		mulAdd:   func(dst, src []byte, c uint32) { gf256.MulAdd(dst, src, byte(c)) },
		mul:      func(dst, src []byte, c uint32) { gf256.MulSlice(dst, src, byte(c)) },
		inv:      func(c uint32) uint32 { return uint32(gf256.Inv(byte(c))) },
		elem:     func(b []byte, i int) uint32 { return uint32(b[i]) },
		setElem:  func(b []byte, i int, v uint32) { b[i] = byte(v) },
		randElem: func(rng *rand.Rand) uint32 { return uint32(byte(rng.Intn(256))) },
	},
	Field16: {
		field:    Field16,
		mulAdd:   func(dst, src []byte, c uint32) { gf16.MulAdd(dst, src, uint16(c)) },
		mul:      func(dst, src []byte, c uint32) { gf16.MulSlice(dst, src, uint16(c)) },
		inv:      func(c uint32) uint32 { return uint32(gf16.Inv(uint16(c))) },
		elem:     func(b []byte, i int) uint32 { return uint32(gf16.Elem(b, i)) },
		setElem:  func(b []byte, i int, v uint32) { gf16.SetElem(b, i, uint16(v)) },
		randElem: func(rng *rand.Rand) uint32 { return uint32(rng.Intn(1 << 16)) },
	},
}

// fieldOps resolves the parameter set's coefficient arithmetic. Callers hold
// validated Params, so Field indexes the table.
func (p Params) fieldOps() *fieldOps { return &fieldOpsTable[p.Field] }
