package gf256

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulMatchesSlowMul(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			got := Mul(byte(a), byte(b))
			want := mulSlow(byte(a), byte(b))
			if got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestAddIsXOR(t *testing.T) {
	if Add(0x57, 0x83) != 0x57^0x83 {
		t.Fatalf("Add(0x57,0x83) = %#x, want %#x", Add(0x57, 0x83), 0x57^0x83)
	}
	if Sub(0x57, 0x83) != Add(0x57, 0x83) {
		t.Fatal("Sub must equal Add in characteristic 2")
	}
}

func TestKnownRijndaelProducts(t *testing.T) {
	// Classic AES test vector: 0x57 * 0x83 = 0xC1 in Rijndael's field.
	tests := []struct {
		a, b, want byte
	}{
		{0x57, 0x83, 0xC1},
		{0x57, 0x13, 0xFE},
		{0x02, 0x80, 0x1B}, // reduction case: x * x^7 = x^8 = poly tail
		{0x01, 0xAB, 0xAB},
		{0x00, 0xFF, 0x00},
	}
	for _, tt := range tests {
		if got := Mul(tt.a, tt.b); got != tt.want {
			t.Errorf("Mul(%#x,%#x) = %#x, want %#x", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestFieldAxiomsProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}

	commutative := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(commutative, cfg); err != nil {
		t.Errorf("multiplication not commutative: %v", err)
	}

	associative := func(a, b, c byte) bool {
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}
	if err := quick.Check(associative, cfg); err != nil {
		t.Errorf("multiplication not associative: %v", err)
	}

	distributive := func(a, b, c byte) bool {
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(distributive, cfg); err != nil {
		t.Errorf("multiplication not distributive over addition: %v", err)
	}

	identity := func(a byte) bool { return Mul(a, 1) == a && Add(a, 0) == a }
	if err := quick.Check(identity, cfg); err != nil {
		t.Errorf("identity elements broken: %v", err)
	}

	inverse := func(a byte) bool {
		if a == 0 {
			return true
		}
		return Mul(a, Inv(a)) == 1
	}
	if err := quick.Check(inverse, cfg); err != nil {
		t.Errorf("multiplicative inverse broken: %v", err)
	}

	selfInverseAdd := func(a byte) bool { return Add(a, a) == 0 }
	if err := quick.Check(selfInverseAdd, cfg); err != nil {
		t.Errorf("addition not self-inverse: %v", err)
	}
}

func TestDivInvPow(t *testing.T) {
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			q := Div(byte(a), byte(b))
			if Mul(q, byte(b)) != byte(a) {
				t.Fatalf("Div(%d,%d)*%d != %d", a, b, b, a)
			}
		}
		if Div(0, byte(a)) != 0 {
			t.Fatalf("Div(0,%d) != 0", a)
		}
	}
	for a := 1; a < 256; a++ {
		p := byte(1)
		for n := 0; n < 10; n++ {
			if got := Pow(byte(a), n); got != p {
				t.Fatalf("Pow(%d,%d) = %d, want %d", a, n, got, p)
			}
			p = Mul(p, byte(a))
		}
	}
	if Pow(0, 0) != 1 || Pow(0, 5) != 0 {
		t.Fatal("Pow with zero base broken")
	}
}

func TestDivByZeroPanics(t *testing.T) {
	assertPanics(t, "Div", func() { Div(1, 0) })
	assertPanics(t, "Inv", func() { Inv(0) })
	assertPanics(t, "Log", func() { Log(0) })
	assertPanics(t, "Pow", func() { Pow(3, -1) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if Exp(Log(byte(a))) != byte(a) {
			t.Fatalf("Exp(Log(%d)) != %d", a, a)
		}
	}
	if Exp(-1) != Exp(254) {
		t.Fatal("Exp must reduce negative exponents mod 255")
	}
	if Exp(255) != Exp(0) {
		t.Fatal("Exp must reduce exponents mod 255")
	}
}

func TestGeneratorIsPrimitive(t *testing.T) {
	seen := make(map[byte]bool, 255)
	x := byte(1)
	for i := 0; i < 255; i++ {
		if seen[x] {
			t.Fatalf("generator cycle shorter than 255 (repeat at %d)", i)
		}
		seen[x] = true
		x = mulSlow(x, generator)
	}
	if x != 1 {
		t.Fatal("generator order is not 255")
	}
}

var allStrategies = []Strategy{StrategyNaive, StrategyTable, StrategyBitPlane, StrategyAccel}

// rowLengths are the row shapes the coding layer's traffic has: coefficient
// vectors of 4-40 elements, 8-byte blocks behind them, 256 B and 1 KiB
// payloads.
var rowLengths = []int{4, 8, 16, 40, 48, 256, 1024}

func TestMulSliceStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range append([]int{0, 1, 7, 9, 63, 64, 100}, rowLengths...) {
		src := make([]byte, n)
		rng.Read(src)
		for c := 0; c < 256; c += 17 {
			want := make([]byte, n)
			for i, v := range src {
				want[i] = Mul(byte(c), v)
			}
			dst := make([]byte, n)
			MulSlice(dst, src, byte(c))
			if !bytes.Equal(dst, want) {
				t.Fatalf("MulSlice(c=%d, n=%d) mismatch", c, n)
			}
		}
	}
}

func TestMulAddSliceStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range append([]int{0, 1, 5, 33, 257}, rowLengths...) {
		src := make([]byte, n)
		base := make([]byte, n)
		rng.Read(src)
		rng.Read(base)
		for c := 0; c < 256; c += 13 {
			want := make([]byte, n)
			copy(want, base)
			for i, v := range src {
				want[i] ^= Mul(byte(c), v)
			}
			dst := make([]byte, n)
			copy(dst, base)
			MulAdd(dst, src, byte(c))
			if !bytes.Equal(dst, want) {
				t.Fatalf("MulAdd(c=%d, n=%d) mismatch", c, n)
			}
			for _, s := range allStrategies {
				copy(dst, base)
				MulAddSlice(s, dst, src, byte(c))
				if !bytes.Equal(dst, want) {
					t.Fatalf("MulAddSlice(%v, c=%d, n=%d) mismatch", s, c, n)
				}
			}
		}
	}
}

func TestMulSliceSpecialCoefficients(t *testing.T) {
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	dst := make([]byte, len(src))
	MulSlice(dst, src, 0)
	for _, v := range dst {
		if v != 0 {
			t.Fatal("MulSlice by 0 must zero dst")
		}
	}
	MulSlice(dst, src, 1)
	if !bytes.Equal(dst, src) {
		t.Fatal("MulSlice by 1 must copy src")
	}
	// MulAdd by zero must be a no-op.
	before := append([]byte(nil), dst...)
	MulAdd(dst, src, 0)
	if !bytes.Equal(dst, before) {
		t.Fatal("MulAdd by 0 must not modify dst")
	}
}

func TestScaleSliceInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range append([]int{100}, rowLengths...) {
		s := make([]byte, n)
		rng.Read(s)
		want := make([]byte, n)
		for i, v := range s {
			want[i] = Mul(0xAB, v)
		}
		Scale(s, 0xAB)
		if !bytes.Equal(s, want) {
			t.Fatalf("Scale(n=%d) mismatch", n)
		}
	}
}

func TestMulSliceAliasedInPlace(t *testing.T) {
	src := []byte{0, 1, 2, 3, 250, 251, 252, 253, 254, 255, 17}
	want := make([]byte, len(src))
	for i, v := range src {
		want[i] = Mul(0x9D, v)
	}
	MulSlice(src, src, 0x9D)
	if !bytes.Equal(src, want) {
		t.Fatal("in-place MulSlice mismatch")
	}
}

func TestDotProduct(t *testing.T) {
	a := []byte{1, 2, 3}
	b := []byte{4, 5, 6}
	want := Add(Add(Mul(1, 4), Mul(2, 5)), Mul(3, 6))
	if got := DotProduct(a, b); got != want {
		t.Fatalf("DotProduct = %d, want %d", got, want)
	}
	if DotProduct(nil, nil) != 0 {
		t.Fatal("empty DotProduct must be 0")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	assertPanics(t, "MulSlice", func() { MulSlice(make([]byte, 2), make([]byte, 3), 5) })
	assertPanics(t, "MulAdd", func() { MulAdd(make([]byte, 2), make([]byte, 3), 5) })
	assertPanics(t, "MulAddSlice", func() { MulAddSlice(StrategyTable, make([]byte, 2), make([]byte, 3), 5) })
	assertPanics(t, "DotProduct", func() { DotProduct(make([]byte, 2), make([]byte, 3)) })
}

func TestBitPlaneConsts(t *testing.T) {
	for c := 0; c < 256; c++ {
		ck := bitPlaneConsts(byte(c))
		for k := 0; k < 8; k++ {
			want := mulSlow(byte(c), byte(1)<<uint(k))
			if ck[k] != want {
				t.Fatalf("bitPlaneConsts(%d)[%d] = %d, want %d", c, k, ck[k], want)
			}
		}
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyAccel.String() != "accel" || StrategyBitPlane.String() != "bitplane" ||
		StrategyTable.String() != "table" || StrategyNaive.String() != "naive" {
		t.Fatal("Strategy.String names changed")
	}
	if Strategy(0).String() != "Strategy(0)" {
		t.Fatal("unknown Strategy.String format changed")
	}
}

func benchMulAdd(b *testing.B, s Strategy, n int) {
	src := make([]byte, n)
	dst := make([]byte, n)
	rng := rand.New(rand.NewSource(4))
	rng.Read(src)
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlice(s, dst, src, 0xA7)
	}
}

func BenchmarkMulAddNaive1K(b *testing.B)    { benchMulAdd(b, StrategyNaive, 1024) }
func BenchmarkMulAddTable1K(b *testing.B)    { benchMulAdd(b, StrategyTable, 1024) }
func BenchmarkMulAddBitPlane1K(b *testing.B) { benchMulAdd(b, StrategyBitPlane, 1024) }
func BenchmarkMulAddAccel1K(b *testing.B)    { benchMulAdd(b, StrategyAccel, 1024) }

func TestNibbleTables(t *testing.T) {
	for c := 0; c < 256; c += 7 {
		lo, hi := nibbleTables(byte(c))
		for v := 0; v < 256; v++ {
			got := lo[v&0xF] ^ hi[v>>4]
			if got != Mul(byte(c), byte(v)) {
				t.Fatalf("nibble mul %d*%d = %d, want %d", c, v, got, Mul(byte(c), byte(v)))
			}
		}
	}
}
