package gf256

import (
	"encoding/binary"
	"fmt"
)

// The ablation surface: the bulk kernels the production path was measured
// against, selectable by Strategy so the benchmark's gf256.muladd_* rows and
// FuzzGFKernels can run them side by side. Only this package and benchmark/
// may name it; a CI grep holds every other package out.

// Strategy names one bulk multiply-accumulate kernel for MulAddSlice.
type Strategy int

const (
	// StrategyAccel is half-byte (nibble) table multiplication, the scalar
	// analogue of the PSHUFB/SSE2 technique the paper accelerates coding
	// with. The two 16-entry tables stay in L1 or registers but are rebuilt
	// on every call.
	StrategyAccel Strategy = iota + 1
	// StrategyBitPlane is 64-bit-wide bit-plane XOR multiplication, the
	// other wide-datapath kernel.
	StrategyBitPlane
	// StrategyTable walks the full product table's row for c, one byte at a
	// time: the kernel MulAdd uses.
	StrategyTable
	// StrategyNaive uses log/exp lookups per byte, the paper's baseline
	// ("traditional lookup-table approach").
	StrategyNaive
)

// String returns the strategy name for logs and benchmarks.
func (s Strategy) String() string {
	switch s {
	case StrategyAccel:
		return "accel"
	case StrategyBitPlane:
		return "bitplane"
	case StrategyTable:
		return "table"
	case StrategyNaive:
		return "naive"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// MulAddSlice computes dst[i] ^= c * src[i] with the named kernel, under
// MulAdd's length and aliasing contract. An unknown strategy runs the nibble
// kernel.
func MulAddSlice(strategy Strategy, dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: MulAddSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		xorSlice(dst, src)
		return
	}
	switch strategy {
	case StrategyNaive:
		mulAddNaive(dst, src, c)
	case StrategyTable:
		mulAddTable(dst, src, c)
	case StrategyBitPlane:
		mulAddWideXOR(dst, src, c)
	default:
		mulAddNibble(dst, src, c)
	}
}

func mulAddNaive(dst, src []byte, c byte) {
	logC := int(logTable[c])
	for i, v := range src {
		if v != 0 {
			dst[i] ^= expTable[logC+int(logTable[v])]
		}
	}
}

// The wide-XOR strategy exploits that multiplication by a fixed c is
// GF(2)-linear in the bits of the operand:
//
//	c*x = XOR over k in 0..7 with bit k of x set of (c * x^k mod Poly)
//
// Packing 8 data bytes into a uint64 lets one loop iteration apply the k-th
// bit plane to all 8 bytes at once: extract bit k of every lane, expand it to
// a full byte mask, and XOR in the broadcast constant c*2^k. This mirrors the
// paper's SSE2 loop (Sec. 4, "Accelerated network coding"), which widens the
// datapath instead of performing per-byte table lookups.

const (
	lsbMask   = 0x0101010101010101 // LSB of each byte lane
	broadcast = 0x0101010101010101 // multiplying a byte by this broadcasts it
)

// bitPlaneConsts returns c * 2^k mod Poly for k = 0..7, the per-plane
// constants of the linear map x -> c*x.
func bitPlaneConsts(c byte) [8]byte {
	var ck [8]byte
	v := c
	for k := 0; k < 8; k++ {
		ck[k] = v
		hi := v & 0x80
		v <<= 1
		if hi != 0 {
			v ^= byte(Poly & 0xFF)
		}
	}
	return ck
}

// planeConsts are the eight broadcast bit-plane constants of x -> c*x,
// hoisted into distinct locals so the compiler keeps them in registers
// across the word loop instead of reloading an array element per plane.
type planeConsts struct {
	b0, b1, b2, b3, b4, b5, b6, b7 uint64
}

func broadcastPlanes(c byte) planeConsts {
	ck := bitPlaneConsts(c)
	return planeConsts{
		b0: uint64(ck[0]) * broadcast,
		b1: uint64(ck[1]) * broadcast,
		b2: uint64(ck[2]) * broadcast,
		b3: uint64(ck[3]) * broadcast,
		b4: uint64(ck[4]) * broadcast,
		b5: uint64(ck[5]) * broadcast,
		b6: uint64(ck[6]) * broadcast,
		b7: uint64(ck[7]) * broadcast,
	}
}

// mulWord applies all eight bit planes of x -> c*x to one 8-lane word. The
// unrolled plane sequence is pure AND/SHIFT/MUL/XOR on registers — the shape
// a vectorizing backend turns into mask-and-select lanes, and scalar Go
// executes without a loop-carried counter.
func mulWord(w uint64, p *planeConsts) uint64 {
	acc := ((w >> 0) & lsbMask) * 0xFF & p.b0
	acc ^= ((w >> 1) & lsbMask) * 0xFF & p.b1
	acc ^= ((w >> 2) & lsbMask) * 0xFF & p.b2
	acc ^= ((w >> 3) & lsbMask) * 0xFF & p.b3
	acc ^= ((w >> 4) & lsbMask) * 0xFF & p.b4
	acc ^= ((w >> 5) & lsbMask) * 0xFF & p.b5
	acc ^= ((w >> 6) & lsbMask) * 0xFF & p.b6
	acc ^= ((w >> 7) & lsbMask) * 0xFF & p.b7
	return acc
}

func mulAddWideXOR(dst, src []byte, c byte) {
	p := broadcastPlanes(c)
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		s := src[i : i+8 : i+8] // full-slice exprs: one bounds check per word
		d := dst[i : i+8 : i+8]
		w := binary.LittleEndian.Uint64(s)
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)^mulWord(w, &p))
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= mulTable[c][src[i]]
	}
}

// The nibble strategy is the scalar analogue of the PSHUFB technique used by
// SIMD GF(2^8) kernels (and the spirit of the paper's SSE2 loop): split each
// operand byte into two 4-bit halves and resolve each half against a 16-entry
// table that lives in L1 (or registers), instead of a 64 KiB product table.
//
//	c*x = loTab[x & 0xF] ^ hiTab[x >> 4]
//
// because multiplication by c is linear over GF(2) and x = (x & 0xF) ^ (x & 0xF0).

// nibbleTables returns the two 16-entry half-byte product tables for c.
func nibbleTables(c byte) (lo, hi [16]byte) {
	for v := 0; v < 16; v++ {
		lo[v] = mulTable[c][v]
		hi[v] = mulTable[c][v<<4]
	}
	return lo, hi
}

func mulAddNibble(dst, src []byte, c byte) {
	lo, hi := nibbleTables(c)
	n := len(src)
	i := 0
	for ; i+8 <= n; i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] ^= lo[s[0]&0xF] ^ hi[s[0]>>4]
		d[1] ^= lo[s[1]&0xF] ^ hi[s[1]>>4]
		d[2] ^= lo[s[2]&0xF] ^ hi[s[2]>>4]
		d[3] ^= lo[s[3]&0xF] ^ hi[s[3]>>4]
		d[4] ^= lo[s[4]&0xF] ^ hi[s[4]>>4]
		d[5] ^= lo[s[5]&0xF] ^ hi[s[5]>>4]
		d[6] ^= lo[s[6]&0xF] ^ hi[s[6]>>4]
		d[7] ^= lo[s[7]&0xF] ^ hi[s[7]>>4]
	}
	for ; i < n; i++ {
		dst[i] ^= lo[src[i]&0xF] ^ hi[src[i]>>4]
	}
}
