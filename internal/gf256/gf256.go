// Package gf256 implements arithmetic over the Galois field GF(2^8) using
// Rijndael's reduction polynomial x^8 + x^4 + x^3 + x + 1 (0x11B), the field
// OMNC uses for random linear network coding (Sec. 3.1 and 4 of the paper).
//
// Besides scalar operations, the package has one production bulk kernel:
// MulAdd, MulSlice and Scale walk the operand against the 256-byte row of
// the full product table that belongs to the coefficient. It is the only
// bulk path package coding can reach, chosen by measurement on the two row
// shapes the traffic has — 1 KiB payload rows and 8-48 byte coefficient and
// short-block rows — where it beats every alternative below: the row needs
// no per-call set-up (which is most of a short row's cost under the nibble
// kernel) and pure Go gains nothing from widening the data path.
//
// The ablation surface — Strategy, its four constants and MulAddSlice — keeps
// the alternatives runnable side by side: the nibble ("accel") kernel, the
// 64-bit bit-plane kernel, the full-table kernel again, and the paper's
// per-byte log/exp baseline. Its users are the benchmark's gf256.muladd_*
// ledger rows and FuzzGFKernels, which cross-checks all of them against a
// shift-and-reduce reference; nothing outside this package and the
// benchmark may call it (CI greps for that).
//
// All operations are safe for concurrent use; the tables are immutable after
// package initialization.
package gf256

import "encoding/binary"

// Poly is Rijndael's irreducible polynomial with the leading x^8 bit,
// used to reduce products back into the field.
const Poly = 0x11B

// generator is a primitive element of GF(2^8) under Poly. 0x03 generates the
// full multiplicative group, which makes the log/exp tables total.
const generator = 0x03

var (
	expTable [512]byte // exp[i] = g^i, doubled to avoid a mod-255 per multiply
	logTable [256]byte // log[x] = i such that g^i = x; log[0] is unused
	mulTable [256][256]byte
	invTable [256]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		expTable[i] = x
		logTable[x] = byte(i)
		x = mulSlow(x, generator)
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			mulTable[a][b] = expTable[int(logTable[a])+int(logTable[b])]
		}
	}
	for a := 1; a < 256; a++ {
		invTable[a] = expTable[255-int(logTable[a])]
	}
}

// mulSlow multiplies two field elements by shift-and-reduce ("Russian
// peasant"); it is only used to build the tables.
func mulSlow(a, b byte) byte {
	var p byte
	for b > 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= byte(Poly & 0xFF)
		}
		b >>= 1
	}
	return p
}

// Add returns a + b in GF(2^8). Addition and subtraction coincide (XOR).
func Add(a, b byte) byte { return a ^ b }

// Sub returns a - b in GF(2^8); identical to Add.
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte { return mulTable[a][b] }

// Div returns a / b in GF(2^8). Division by zero panics, mirroring the
// behaviour of integer division: it is a programming error, not a data error.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. Inv(0) panics.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return invTable[a]
}

// Pow returns a raised to the power n (n >= 0) in GF(2^8).
func Pow(a byte, n int) byte {
	if n < 0 {
		panic("gf256: negative exponent")
	}
	if a == 0 {
		if n == 0 {
			return 1
		}
		return 0
	}
	if n == 0 {
		return 1
	}
	return expTable[(int(logTable[a])*n)%255]
}

// Exp returns g^i for the field generator g; i is reduced mod 255.
func Exp(i int) byte {
	i %= 255
	if i < 0 {
		i += 255
	}
	return expTable[i]
}

// Log returns log_g(a). Log(0) panics since zero is outside the
// multiplicative group.
func Log(a byte) int {
	if a == 0 {
		panic("gf256: log of zero")
	}
	return int(logTable[a])
}

// MulAdd computes dst[i] ^= c * src[i] for all i: the inner loop of
// encoding, re-encoding and Gauss-Jordan elimination. dst and src must have
// equal length and must not overlap partially (identical slices are fine).
func MulAdd(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: MulAdd length mismatch")
	}
	switch c {
	case 0:
	case 1:
		xorSlice(dst, src)
	default:
		mulAddTable(dst, src, c)
	}
}

// MulSlice computes dst[i] = c * src[i] for all i, under the same length and
// aliasing contract as MulAdd.
func MulSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSlice length mismatch")
	}
	switch c {
	case 0:
		clear(dst)
	case 1:
		copy(dst, src)
	default:
		row := &mulTable[c]
		for i, v := range src {
			dst[i] = row[v]
		}
	}
}

// Scale multiplies the slice in place by c.
func Scale(s []byte, c byte) { MulSlice(s, s, c) }

// DotProduct returns the inner product of a and b over GF(2^8).
func DotProduct(a, b []byte) byte {
	if len(a) != len(b) {
		panic("gf256: DotProduct length mismatch")
	}
	var acc byte
	for i := range a {
		acc ^= mulTable[a[i]][b[i]]
	}
	return acc
}

func xorSlice(dst, src []byte) {
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		d := binary.LittleEndian.Uint64(dst[i:])
		s := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], d^s)
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// mulAddTable is the production kernel: one 256-byte row of the product
// table, hoisted out of the loop, resolves every operand byte in one load.
func mulAddTable(dst, src []byte, c byte) {
	row := &mulTable[c]
	for i, v := range src {
		dst[i] ^= row[v]
	}
}
