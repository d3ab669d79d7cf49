package coding

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestBatchDecoderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	p := testParams(8, 32)
	data := randomData(rng, 8*32)
	gen, _ := NewGeneration(0, p, data)
	enc := NewEncoder(gen, rng)
	dec, err := NewBatchDecoder(0, p)
	if err != nil {
		t.Fatal(err)
	}
	if dec.TryDecode() {
		t.Fatal("empty decoder cannot decode")
	}
	for i := 0; i < 8; i++ {
		if err := dec.Add(enc.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if !dec.TryDecode() {
		// With 8 random packets over GF(256) failure probability is ~2^-60;
		// add a couple more just in case and retry.
		dec.Add(enc.Next())
		dec.Add(enc.Next())
		if !dec.TryDecode() {
			t.Fatal("batch decode failed with surplus packets")
		}
	}
	if !dec.Decoded() {
		t.Fatal("Decoded() must be true after successful TryDecode")
	}
	if !bytes.Equal(dec.Data(), data) {
		t.Fatal("batch decode corrupted data")
	}
	// Idempotent once decoded.
	if !dec.TryDecode() {
		t.Fatal("TryDecode must stay true")
	}
}

func TestBatchDecoderMatchesProgressive(t *testing.T) {
	// Same packet stream into both decoders: identical output.
	rng := rand.New(rand.NewSource(82))
	p := testParams(10, 16)
	gen, _ := NewGeneration(0, p, randomData(rng, 160))
	enc := NewEncoder(gen, rng)
	prog, _ := NewDecoder(0, p)
	batch, _ := NewBatchDecoder(0, p)
	for !prog.Decoded() {
		pkt := enc.Next()
		batch.Add(pkt.Clone())
		prog.Add(pkt)
	}
	if !batch.TryDecode() {
		t.Fatal("batch decoder behind progressive")
	}
	if !bytes.Equal(batch.Data(), prog.Data()) {
		t.Fatal("decoders disagree")
	}
}

func TestBatchDecoderBuffersDuplicates(t *testing.T) {
	// Unlike the progressive decoder, the batch decoder cannot screen
	// duplicates: its buffer grows with every arrival.
	rng := rand.New(rand.NewSource(83))
	p := testParams(4, 8)
	gen, _ := NewGeneration(0, p, nil)
	enc := NewEncoder(gen, rng)
	batch, _ := NewBatchDecoder(0, p)
	pkt := enc.Next()
	for i := 0; i < 5; i++ {
		batch.Add(pkt.Clone())
	}
	if batch.Buffered() != 5 {
		t.Fatalf("buffered = %d, want 5 (duplicates kept)", batch.Buffered())
	}
	if batch.TryDecode() {
		t.Fatal("five copies of one packet cannot decode rank 4")
	}
	if batch.Data() != nil {
		t.Fatal("Data before decode must be nil")
	}
}

func TestBatchDecoderValidation(t *testing.T) {
	if _, err := NewBatchDecoder(0, testParams(0, 1)); err == nil {
		t.Fatal("invalid params must fail")
	}
	dec, _ := NewBatchDecoder(1, testParams(2, 4))
	if err := dec.Add(&Packet{Generation: 2, Coeffs: []byte{1, 0}, Payload: make([]byte, 4)}); err == nil {
		t.Fatal("wrong generation must fail")
	}
	if err := dec.Add(&Packet{Generation: 1, Coeffs: []byte{1}, Payload: make([]byte, 4)}); err == nil {
		t.Fatal("malformed packet must fail")
	}
}

// BenchmarkDecodeProgressive vs BenchmarkDecodeBatch: the Sec. 4 ablation.
// The batch decoder is charged what a real receiver without on-the-fly
// innovation checks must pay — one elimination attempt per arrival once the
// buffer could plausibly decode.
func benchDecode(b *testing.B, progressive bool) {
	rng := rand.New(rand.NewSource(84))
	p := Params{GenerationSize: 40, BlockSize: 1024}
	data := make([]byte, 40*1024)
	rng.Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen, _ := NewGeneration(0, p, data)
		enc := NewEncoder(gen, rng)
		if progressive {
			dec, _ := NewDecoder(0, p)
			for !dec.Decoded() {
				dec.Add(enc.Next())
			}
		} else {
			dec, _ := NewBatchDecoder(0, p)
			for !dec.TryDecode() {
				dec.Add(enc.Next())
			}
		}
	}
}

func BenchmarkDecodeProgressive(b *testing.B) { benchDecode(b, true) }
func BenchmarkDecodeBatch(b *testing.B)       { benchDecode(b, false) }

// loadedRecoder builds a recoder holding fill innovative packets of an
// n-packet generation; two calls with the same seed produce recoders whose
// state and emission RNG agree exactly.
func loadedRecoder(tb testing.TB, seed int64, n, bs, fill int) *Recoder {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	gen, err := NewGeneration(1, testParams(n, bs), randomData(rng, n*bs/2))
	if err != nil {
		tb.Fatal(err)
	}
	enc := NewEncoder(gen, rng)
	rec, err := NewRecoder(1, testParams(n, bs), rand.New(rand.NewSource(seed+1)))
	if err != nil {
		tb.Fatal(err)
	}
	for rec.Rank() < fill {
		p := enc.Next()
		if _, err := rec.Add(p); err != nil {
			tb.Fatal(err)
		}
		p.Release()
	}
	return rec
}

// TestNextBatchMatchesSequentialNext pins the batch contract: NextBatch(k)
// produces byte-identical packets to k sequential Next calls, and leaves the
// recoder's RNG at the same position (packets emitted afterwards agree too).
func TestNextBatchMatchesSequentialNext(t *testing.T) {
	for _, tc := range []struct{ n, bs, fill, batch int }{
		{8, 32, 1, 4},
		{8, 32, 5, 7},
		{16, 256, 16, 16},
		{4, 64, 3, 1},
	} {
		seq := loadedRecoder(t, 99, tc.n, tc.bs, tc.fill)
		bat := loadedRecoder(t, 99, tc.n, tc.bs, tc.fill)
		var want []*Packet
		for j := 0; j < tc.batch; j++ {
			want = append(want, seq.Next())
		}
		got := bat.NextBatch(tc.batch)
		if len(got) != tc.batch {
			t.Fatalf("%+v: NextBatch returned %d packets, want %d", tc, len(got), tc.batch)
		}
		for j := range want {
			if !bytes.Equal(want[j].Coeffs, got[j].Coeffs) || !bytes.Equal(want[j].Payload, got[j].Payload) {
				t.Fatalf("%+v: batch packet %d differs from sequential Next", tc, j)
			}
			if got[j].Generation != want[j].Generation {
				t.Fatalf("%+v: batch packet %d generation %d, want %d", tc, j, got[j].Generation, want[j].Generation)
			}
		}
		// Same RNG position afterwards: the next emission must still agree.
		after, afterBatch := seq.Next(), bat.Next()
		if !bytes.Equal(after.Coeffs, afterBatch.Coeffs) || !bytes.Equal(after.Payload, afterBatch.Payload) {
			t.Fatalf("%+v: RNG position diverged after the batch", tc)
		}
		after.Release()
		afterBatch.Release()
		for j := range want {
			want[j].Release()
			got[j].Release()
		}
		seq.Close()
		bat.Close()
	}
}

// TestNextBatchEmpty pins the nothing-buffered case: like Next's nil return,
// a batch from an empty recoder emits nothing.
func TestNextBatchEmpty(t *testing.T) {
	rec, err := NewRecoder(1, testParams(8, 32), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.NextBatch(5); got != nil {
		t.Fatalf("empty recoder emitted %d packets", len(got))
	}
	dst := make([]*Packet, 0, 4)
	if got := rec.AppendBatch(dst, 3); len(got) != 0 {
		t.Fatalf("empty recoder appended %d packets", len(got))
	}
	if got := rec.NextBatch(0); got != nil {
		t.Fatal("zero-count batch emitted packets")
	}
}

// TestAppendBatchAllocsSteadyState gates the amortization: with the packet
// arena warm and the caller reusing its destination slice, a whole batch
// emission allocates nothing.
func TestAppendBatchAllocsSteadyState(t *testing.T) {
	skipIfRace(t)
	rec := loadedRecoder(t, 7, 16, 256, 16)
	defer rec.Close()
	const batch = 8
	dst := make([]*Packet, 0, batch)
	release := func() {
		for _, p := range dst {
			p.Release()
		}
		dst = dst[:0]
	}
	dst = rec.AppendBatch(dst, batch) // warm the arena
	release()
	allocs := testing.AllocsPerRun(100, func() {
		dst = rec.AppendBatch(dst, batch)
		release()
	})
	if allocs > 0 {
		t.Fatalf("AppendBatch allocates %.1f objects/op in steady state, want 0", allocs)
	}
}
