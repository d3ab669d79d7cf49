package coding

import (
	"bytes"
	"math/rand"
	"testing"

	"omnc/internal/gf256"
)

func testParams(n, m int) Params {
	return Params{GenerationSize: n, BlockSize: m}
}

func randomData(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{name: "default", p: DefaultParams(), wantErr: false},
		{name: "zero generation", p: testParams(0, 10), wantErr: true},
		{name: "negative generation", p: testParams(-1, 10), wantErr: true},
		{name: "oversized generation", p: testParams(256, 10), wantErr: true},
		{name: "max generation", p: testParams(255, 10), wantErr: false},
		{name: "zero block", p: testParams(4, 0), wantErr: true},
		{name: "negative block", p: testParams(4, -7), wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if p.GenerationSize != 40 || p.BlockSize != 1024 {
		t.Fatalf("paper evaluation uses 40 x 1 KB, got %d x %d", p.GenerationSize, p.BlockSize)
	}
	if p.PacketSize() != 40+1024 {
		t.Fatalf("PacketSize = %d", p.PacketSize())
	}
}

func TestNewGenerationPadsAndSplits(t *testing.T) {
	p := testParams(3, 4)
	gen, err := NewGeneration(7, p, []byte{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if gen.ID != 7 {
		t.Fatalf("ID = %d", gen.ID)
	}
	if !bytes.Equal(gen.Block(0), []byte{1, 2, 3, 4}) {
		t.Fatalf("block 0 = %v", gen.Block(0))
	}
	if !bytes.Equal(gen.Block(1), []byte{5, 0, 0, 0}) {
		t.Fatalf("block 1 = %v", gen.Block(1))
	}
	if !bytes.Equal(gen.Block(2), []byte{0, 0, 0, 0}) {
		t.Fatalf("block 2 = %v", gen.Block(2))
	}
	want := []byte{1, 2, 3, 4, 5, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(gen.Data(), want) {
		t.Fatalf("Data() = %v", gen.Data())
	}
}

func TestNewGenerationRejectsOversizedData(t *testing.T) {
	p := testParams(2, 4)
	if _, err := NewGeneration(0, p, make([]byte, 9)); err == nil {
		t.Fatal("expected ErrDataTooLarge")
	}
	if _, err := NewGeneration(0, testParams(0, 4), nil); err == nil {
		t.Fatal("expected invalid params error")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 8, 40} {
		for _, m := range []int{1, 16, 128} {
			p := testParams(n, m)
			data := randomData(rng, n*m)
			gen, err := NewGeneration(1, p, data)
			if err != nil {
				t.Fatal(err)
			}
			enc := NewEncoder(gen, rng)
			dec, err := NewDecoder(1, p)
			if err != nil {
				t.Fatal(err)
			}
			sent := 0
			for !dec.Decoded() {
				if sent > 3*n+16 {
					t.Fatalf("n=%d m=%d: not decoded after %d packets", n, m, sent)
				}
				if _, err := dec.Add(enc.Next()); err != nil {
					t.Fatal(err)
				}
				sent++
			}
			if !bytes.Equal(dec.Data(), data) {
				t.Fatalf("n=%d m=%d: decoded data mismatch", n, m)
			}
		}
	}
}

func TestDecoderRejectsWrongGeneration(t *testing.T) {
	p := testParams(2, 4)
	dec, _ := NewDecoder(1, p)
	pk := &Packet{Generation: 2, Coeffs: []byte{1, 0}, Payload: []byte{1, 2, 3, 4}}
	if _, err := dec.Add(pk); err == nil {
		t.Fatal("expected generation mismatch error")
	}
}

func TestDecoderRejectsMalformedPacket(t *testing.T) {
	p := testParams(2, 4)
	dec, _ := NewDecoder(1, p)
	if _, err := dec.Add(&Packet{Generation: 1, Coeffs: []byte{1}, Payload: []byte{1, 2, 3, 4}}); err == nil {
		t.Fatal("expected malformed coeffs error")
	}
	if _, err := dec.Add(&Packet{Generation: 1, Coeffs: []byte{1, 0}, Payload: []byte{1}}); err == nil {
		t.Fatal("expected malformed payload error")
	}
}

func TestNonInnovativePacketDiscarded(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	p := testParams(4, 8)
	gen, _ := NewGeneration(0, p, randomData(rng, 32))
	enc := NewEncoder(gen, rng)
	dec, _ := NewDecoder(0, p)

	pk := enc.Next()
	dup := pk.Clone()
	if inn, _ := dec.Add(pk); !inn {
		t.Fatal("first packet must be innovative")
	}
	if inn, _ := dec.Add(dup); inn {
		t.Fatal("duplicate packet must be non-innovative")
	}
	if dec.Rank() != 1 {
		t.Fatalf("rank = %d, want 1", dec.Rank())
	}

	// A scaled copy is also non-innovative.
	pk2 := enc.Next()
	scaled := pk2.Clone()
	gf256.Scale(scaled.Coeffs, 7)
	gf256.Scale(scaled.Payload, 7)
	if inn, _ := dec.Add(pk2); !inn {
		t.Fatal("second packet must be innovative")
	}
	if inn, _ := dec.Add(scaled); inn {
		t.Fatal("scaled copy must be non-innovative")
	}
}

func TestProgressiveBlockAvailability(t *testing.T) {
	// Feed unit-vector packets: each should immediately decode one block.
	rng := rand.New(rand.NewSource(13))
	p := testParams(4, 8)
	data := randomData(rng, 32)
	gen, _ := NewGeneration(0, p, data)
	dec, _ := NewDecoder(0, p)

	for i := 0; i < 4; i++ {
		coeffs := make([]byte, 4)
		coeffs[i] = 1
		payload := append([]byte(nil), gen.Block(i)...)
		if inn, err := dec.Add(&Packet{Generation: 0, Coeffs: coeffs, Payload: payload}); err != nil || !inn {
			t.Fatalf("unit packet %d: innovative=%v err=%v", i, inn, err)
		}
		for j := 0; j <= i; j++ {
			if got := dec.Block(j); !bytes.Equal(got, gen.Block(j)) {
				t.Fatalf("after %d packets, block %d = %v, want %v", i+1, j, got, gen.Block(j))
			}
		}
		for j := i + 1; j < 4; j++ {
			if dec.Block(j) != nil {
				t.Fatalf("block %d available too early", j)
			}
		}
	}
	if !dec.Decoded() {
		t.Fatal("must be decoded after n unit packets")
	}
}

func TestBlockBoundsAndUnavailable(t *testing.T) {
	p := testParams(3, 2)
	dec, _ := NewDecoder(0, p)
	if dec.Block(-1) != nil || dec.Block(3) != nil || dec.Block(0) != nil {
		t.Fatal("out-of-range or unresolved blocks must be nil")
	}
	if dec.Data() != nil {
		t.Fatal("Data before decode must be nil")
	}
	// A mixed (non-unit) row resolves no block on its own.
	pk := &Packet{Generation: 0, Coeffs: []byte{1, 1, 0}, Payload: []byte{9, 9}}
	if inn, _ := dec.Add(pk); !inn {
		t.Fatal("packet must be innovative")
	}
	if dec.Block(0) != nil || dec.Block(1) != nil {
		t.Fatal("mixed row must not resolve a block")
	}
}

func TestRecoderEndToEnd(t *testing.T) {
	// Source -> relay (recoding) -> destination must deliver decodable
	// packets even though the destination never hears the source directly.
	rng := rand.New(rand.NewSource(14))
	p := testParams(8, 32)
	data := randomData(rng, 8*32)
	gen, _ := NewGeneration(3, p, data)
	enc := NewEncoder(gen, rng)
	relay, _ := NewRecoder(3, p, rng)
	dec, _ := NewDecoder(3, p)

	for i := 0; i < 8; i++ {
		if _, err := relay.Add(enc.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if !relay.Full() {
		t.Fatalf("relay rank = %d, want full", relay.Rank())
	}
	sent := 0
	for !dec.Decoded() {
		if sent > 40 {
			t.Fatal("destination cannot decode from recoded packets")
		}
		if _, err := dec.Add(relay.Next()); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	if !bytes.Equal(dec.Data(), data) {
		t.Fatal("recoded round trip corrupted data")
	}
}

func TestRecoderPartialRankStillInnovative(t *testing.T) {
	// Two relays each holding distinct partial subspaces must both be able
	// to contribute innovative packets to the destination — the path
	// diversity effect OMNC relies on (Sec. 3.2).
	rng := rand.New(rand.NewSource(15))
	p := testParams(6, 16)
	gen, _ := NewGeneration(0, p, randomData(rng, 96))
	enc := NewEncoder(gen, rng)
	relayU, _ := NewRecoder(0, p, rng)
	relayV, _ := NewRecoder(0, p, rng)

	for i := 0; i < 3; i++ {
		relayU.Add(enc.Next())
		relayV.Add(enc.Next())
	}
	dec, _ := NewDecoder(0, p)
	for i := 0; i < 3; i++ {
		dec.Add(relayU.Next())
		dec.Add(relayV.Next())
	}
	// relayU and relayV received independent random packets, so with high
	// probability their spans differ and the union has rank 6.
	if dec.Rank() != 6 {
		t.Fatalf("rank = %d, want 6 (independent relay contributions)", dec.Rank())
	}
}

func TestRecoderEmptyEmitsNil(t *testing.T) {
	p := testParams(4, 4)
	rec, _ := NewRecoder(0, p, rand.New(rand.NewSource(1)))
	if rec.Next() != nil {
		t.Fatal("empty recoder must emit nil")
	}
	if rec.Full() || rec.Rank() != 0 {
		t.Fatal("empty recoder rank must be 0")
	}
	if rec.Generation() != 0 {
		t.Fatal("Generation() mismatch")
	}
}

func TestRecoderRejectsWrongGenerationAndMalformed(t *testing.T) {
	p := testParams(2, 2)
	rec, _ := NewRecoder(5, p, rand.New(rand.NewSource(1)))
	if _, err := rec.Add(&Packet{Generation: 4, Coeffs: []byte{1, 0}, Payload: []byte{0, 0}}); err == nil {
		t.Fatal("expected generation mismatch")
	}
	if _, err := rec.Add(&Packet{Generation: 5, Coeffs: []byte{1}, Payload: []byte{0, 0}}); err == nil {
		t.Fatal("expected malformed packet error")
	}
}

func TestIsInnovativeDoesNotMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	p := testParams(4, 4)
	gen, _ := NewGeneration(0, p, randomData(rng, 16))
	enc := NewEncoder(gen, rng)
	m := newRREF(p)

	pk := enc.Next()
	m.add(pk.Coeffs, pk.Payload)

	probe := enc.Next()
	before := append([]byte(nil), probe.Coeffs...)
	_ = m.isInnovative(probe.Coeffs)
	if !bytes.Equal(probe.Coeffs, before) {
		t.Fatal("isInnovative mutated its input")
	}
	if m.rank() != 1 {
		t.Fatal("isInnovative changed the matrix")
	}

	dup := pk.Clone()
	if m.isInnovative(dup.Coeffs) {
		t.Fatal("duplicate must not be innovative")
	}
	fresh := enc.Next()
	if !m.isInnovative(fresh.Coeffs) {
		// With 4 blocks a random packet is innovative w.p. ~1-2^-24.
		t.Fatal("fresh random packet should be innovative")
	}
}

func TestDecoderExpectedOverheadSmall(t *testing.T) {
	// Random GF(2^8) coding needs n + epsilon packets; the expected
	// overhead is sum 1/(256^k - 1) < 0.005. Over many trials the average
	// number of packets needed must stay close to n.
	rng := rand.New(rand.NewSource(17))
	p := testParams(16, 4)
	total := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		gen, _ := NewGeneration(trial, p, randomData(rng, 64))
		enc := NewEncoder(gen, rng)
		dec, _ := NewDecoder(trial, p)
		for !dec.Decoded() {
			dec.Add(enc.Next())
			total++
		}
	}
	avg := float64(total) / trials
	if avg > 16.5 {
		t.Fatalf("average packets to decode = %.2f, want close to 16", avg)
	}
}

func TestPacketClone(t *testing.T) {
	pk := &Packet{Generation: 9, Coeffs: []byte{1, 2}, Payload: []byte{3, 4}}
	cl := pk.Clone()
	cl.Coeffs[0] = 99
	cl.Payload[0] = 99
	if pk.Coeffs[0] != 1 || pk.Payload[0] != 3 {
		t.Fatal("Clone must deep-copy")
	}
	if cl.Generation != 9 {
		t.Fatal("Clone lost generation")
	}
}

func TestDecoderGenerationAccessor(t *testing.T) {
	dec, _ := NewDecoder(42, testParams(2, 2))
	if dec.Generation() != 42 {
		t.Fatalf("Generation() = %d", dec.Generation())
	}
}

func TestNewDecoderRecoderValidate(t *testing.T) {
	if _, err := NewDecoder(0, testParams(0, 1)); err == nil {
		t.Fatal("NewDecoder must validate params")
	}
	if _, err := NewRecoder(0, testParams(1, 0), rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("NewRecoder must validate params")
	}
}

// TestTwoHopRecodeRoundTrip pins the production GF(2^8) path on the two row
// shapes the traffic has — 40 coefficients in front of 8-byte and of 1 KiB
// blocks: a generation encoded, recoded at two successive relays and decoded
// must equal the source.
func TestTwoHopRecodeRoundTrip(t *testing.T) {
	for _, m := range []int{8, 1024} {
		rng := rand.New(rand.NewSource(18))
		p := testParams(40, m)
		data := randomData(rng, 40*m)
		gen, _ := NewGeneration(0, p, data)
		enc := NewEncoder(gen, rng)
		relay1, _ := NewRecoder(0, p, rng)
		relay2, _ := NewRecoder(0, p, rng)
		dec, _ := NewDecoder(0, p)
		for sent := 0; !dec.Decoded(); sent++ {
			if sent > 3*40 {
				t.Fatalf("block size %d: stalled at rank %d", m, dec.Rank())
			}
			relay1.Add(enc.Next())
			relay2.Add(relay1.Next())
			dec.Add(relay2.Next())
		}
		if !bytes.Equal(dec.Data(), data) {
			t.Fatalf("block size %d: two-hop recoded round trip corrupted data", m)
		}
	}
}
