package gf256

import (
	"bytes"
	"testing"
)

// refMulAdd is the byte-at-a-time reference: shift-and-reduce multiplication
// with no tables and no word tricks, so it shares no machinery with the
// kernels under test.
func refMulAdd(dst, src []byte, c byte) {
	for i := range src {
		dst[i] ^= mulSlow(c, src[i])
	}
}

func refMul(dst, src []byte, c byte) {
	for i := range src {
		dst[i] = mulSlow(c, src[i])
	}
}

// FuzzGFKernels differentially tests the production entry points (MulAdd,
// MulSlice, Scale — the full-table row kernel plus the c==0 and c==1
// xorSlice/copy/clear fast paths) and the four MulAddSlice ablation
// strategies against the byte-at-a-time reference, across random lengths
// (word loops plus tails), random buffer alignments (xorSlice and the wide
// kernels read 8-byte words at arbitrary offsets) and dst==src aliasing (the
// in-place Scale pattern; partial overlap stays forbidden by contract).
func FuzzGFKernels(f *testing.F) {
	f.Add([]byte{}, byte(0), uint8(0), false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, byte(1), uint8(1), false)
	f.Add(bytes.Repeat([]byte{0xFF}, 64), byte(0x53), uint8(7), true)
	f.Add([]byte{0x80, 0x00, 0x1B, 0xCA}, byte(0x02), uint8(3), false)
	f.Add(bytes.Repeat([]byte{0xAA, 0x55}, 100), byte(0xFE), uint8(5), true)

	type mulAddFn struct {
		name string
		f    func(dst, src []byte, c byte)
	}
	mulAdds := []mulAddFn{{"MulAdd", MulAdd}}
	for _, s := range allStrategies {
		mulAdds = append(mulAdds, mulAddFn{s.String() + " MulAddSlice", func(dst, src []byte, c byte) { MulAddSlice(s, dst, src, c) }})
	}
	f.Fuzz(func(t *testing.T, data []byte, c byte, offset uint8, alias bool) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		// Rebase the operands at a fuzzed offset inside larger backings so
		// the 8-byte word loops see every alignment class.
		off := int(offset % 16)
		srcBack := make([]byte, off+len(data))
		copy(srcBack[off:], data)
		src := srcBack[off : off+len(data)]
		dstInit := make([]byte, len(data))
		for i := range dstInit {
			dstInit[i] = byte(i*131) ^ c
		}

		wantAdd := append([]byte(nil), dstInit...)
		refMulAdd(wantAdd, src, c)
		wantMul := make([]byte, len(data))
		refMul(wantMul, src, c)
		wantSelf := append([]byte(nil), src...)
		refMulAdd(wantSelf, src, c)

		dst := make([]byte, off+len(data))[off:]
		for _, k := range mulAdds {
			copy(dst, dstInit)
			k.f(dst, src, c)
			if !bytes.Equal(dst, wantAdd) {
				t.Fatalf("%s(c=%#x, n=%d, off=%d) = %x, want %x", k.name, c, len(data), off, dst, wantAdd)
			}
			if alias {
				// dst == src exactly: the one aliasing shape the contract
				// permits, exercised by Scale and in-place elimination.
				copy(dst, src)
				k.f(dst, dst, c)
				if !bytes.Equal(dst, wantSelf) {
					t.Fatalf("%s self-alias(c=%#x, n=%d, off=%d) = %x, want %x", k.name, c, len(data), off, dst, wantSelf)
				}
			}
		}

		copy(dst, dstInit)
		MulSlice(dst, src, c)
		if !bytes.Equal(dst, wantMul) {
			t.Fatalf("MulSlice(c=%#x, n=%d, off=%d) = %x, want %x", c, len(data), off, dst, wantMul)
		}
		if alias {
			copy(dst, src)
			Scale(dst, c)
			if !bytes.Equal(dst, wantMul) {
				t.Fatalf("Scale(c=%#x, n=%d, off=%d) = %x, want %x", c, len(data), off, dst, wantMul)
			}
		}
	})
}
