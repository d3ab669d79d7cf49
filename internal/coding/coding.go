// Package coding implements the random linear network coding (RLC) scheme
// OMNC transmits with (Sec. 3.1 and 4 of the paper): source data is grouped
// into generations of n blocks of m bytes; coded packets carry a random
// GF(2^8) combination of the blocks together with its coefficient vector;
// intermediate forwarders re-encode buffered innovative packets; and the
// destination decodes progressively with Gauss-Jordan elimination, keeping
// its matrix in reduced row-echelon form so that innovation checks and
// decoding happen on the fly.
//
// # Packet ownership
//
// The emission hot path is allocation-free: Encoder.Next and Recoder.Next
// draw reference-counted packets from a package-global arena (pool.go).
// The caller owns exactly one reference to the returned packet and must
// call Packet.Release when done with it — or Packet.Retain first when
// handing it to an additional owner (a broadcast MAC retains once per
// scheduled delivery). Decoder.Add and Recoder.Add never take ownership:
// they copy what they need into preallocated row storage, so the caller's
// packet is untouched and still the caller's to release. Packets built by
// hand (&Packet{...}, Clone, wire.Unmarshal) are not pooled; Retain and
// Release are no-ops on them, so code can release uniformly.
package coding

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
)

// Params fixes the coding parameters of a session. The paper's evaluation
// uses 40 blocks of 1 KB per generation. Field alone decides the arithmetic:
// each field has one bulk kernel (gf256.MulAdd, gf16.MulAdd).
type Params struct {
	// GenerationSize is n, the number of source blocks per generation.
	GenerationSize int
	// BlockSize is m, the number of payload bytes per block.
	BlockSize int
	// Field selects the coefficient field; the zero value is Field8
	// (GF(2^8), the paper's field, bit-identical to builds without the
	// option). Field16 halves the non-innovation probability per packet at
	// the cost of doubled coefficient overhead.
	Field Field
}

// DefaultParams are the evaluation parameters from Sec. 5 of the paper:
// each generation contains 40 data blocks and each data block is 1 KB.
func DefaultParams() Params {
	return Params{GenerationSize: 40, BlockSize: 1024}
}

// Validate reports whether the parameters identify a usable code.
func (p Params) Validate() error {
	if p.GenerationSize <= 0 {
		return fmt.Errorf("coding: generation size %d must be positive", p.GenerationSize)
	}
	if p.GenerationSize > 255 {
		// With byte coefficients the decoding matrix is over GF(2^8); more
		// than 255 blocks would make random ranks collide too often and the
		// paper never exceeds 40.
		return fmt.Errorf("coding: generation size %d exceeds 255", p.GenerationSize)
	}
	if p.BlockSize <= 0 {
		return fmt.Errorf("coding: block size %d must be positive", p.BlockSize)
	}
	if !p.Field.Valid() {
		return fmt.Errorf("%w: %d", ErrInvalidField, int(p.Field))
	}
	if p.Field == Field16 && p.BlockSize%2 != 0 {
		// GF(2^16) kernels operate on two-byte lanes; an odd block would
		// leave a dangling half element.
		return fmt.Errorf("coding: block size %d must be even under GF(2^16)", p.BlockSize)
	}
	return nil
}

// CoeffBytes returns the packed size of the coefficient vector in bytes:
// GenerationSize elements of the field's element width.
func (p Params) CoeffBytes() int { return p.GenerationSize * p.Field.elemSize() }

// PacketSize returns the number of bytes a coded packet occupies on the air:
// coefficient vector plus coded payload. (Headers are accounted separately
// by the simulator.)
func (p Params) PacketSize() int { return p.CoeffBytes() + p.BlockSize }

// Packet is one coded packet: a linear combination of the blocks of one
// generation over the session's field (Params.Field), carrying its
// combination coefficients. Packets emitted by
// Encoder.Next and Recoder.Next are pooled and reference counted — see the
// package-level ownership contract.
type Packet struct {
	// Generation identifies which generation the packet codes over.
	Generation int
	// Session tags the packet with its unicast session in multiple-unicast
	// emulations sharing one channel; single-session runs leave it zero. The
	// tag is emulator-side demultiplexing state, not part of the wire format.
	Session uint32
	// Coeffs has length GenerationSize; Coeffs[i] multiplies source block i.
	Coeffs []byte
	// Payload has length BlockSize: the coded block.
	Payload []byte

	// Arena bookkeeping (pool.go): pooled marks packets drawn from the
	// arena; refs counts outstanding owners of such packets.
	pooled bool
	refs   atomic.Int32
}

// SessionTag implements the emulator's sim.Tagged interface, letting the
// MAC route the packet straight to its session's receiver port (and shard
// same-time deliveries by session on the parallel engine).
func (pk *Packet) SessionTag() uint32 { return pk.Session }

// Clone returns a deep, unpooled copy of the packet; Release on the clone
// is a no-op.
func (pk *Packet) Clone() *Packet {
	return &Packet{
		Generation: pk.Generation,
		Session:    pk.Session,
		Coeffs:     append([]byte(nil), pk.Coeffs...),
		Payload:    append([]byte(nil), pk.Payload...),
	}
}

// Generation holds the source blocks of one generation (the matrix B in the
// paper, n rows of m bytes).
type Generation struct {
	ID     int
	params Params
	blocks [][]byte
}

// ErrDataTooLarge reports that the supplied data does not fit in a single
// generation.
var ErrDataTooLarge = errors.New("coding: data exceeds generation capacity")

// NewGeneration builds a generation from raw data, zero-padding the final
// block. Data longer than GenerationSize*BlockSize is an error.
func NewGeneration(id int, params Params, data []byte) (*Generation, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	capacity := params.GenerationSize * params.BlockSize
	if len(data) > capacity {
		return nil, fmt.Errorf("%w: %d > %d", ErrDataTooLarge, len(data), capacity)
	}
	// One backing slab for all blocks: two allocations per generation
	// instead of n+1, and the rows stay cache-adjacent for the encoder's
	// row scans.
	slab := make([]byte, capacity)
	copy(slab, data)
	blocks := make([][]byte, params.GenerationSize)
	for i := range blocks {
		blocks[i] = slab[i*params.BlockSize : (i+1)*params.BlockSize]
	}
	return &Generation{ID: id, params: params, blocks: blocks}, nil
}

// Params returns the generation's coding parameters.
func (g *Generation) Params() Params { return g.params }

// Block returns source block i (not a copy; callers must not modify it).
func (g *Generation) Block(i int) []byte { return g.blocks[i] }

// Data returns the concatenation of all blocks (length n*m, including any
// padding added by NewGeneration).
func (g *Generation) Data() []byte {
	out := make([]byte, 0, g.params.GenerationSize*g.params.BlockSize)
	for _, b := range g.blocks {
		out = append(out, b...)
	}
	return out
}

// Encoder produces random linear combinations of a generation's source
// blocks: one row of X = R * B per call (Sec. 3.1).
type Encoder struct {
	gen  *Generation
	rng  *rand.Rand
	fops *fieldOps
	// budget caps emissions per generation (the redundancy knob, set by
	// NewSource); 0 means unlimited — the rateless default.
	budget  int
	emitted int
}

// NewEncoder returns an encoder drawing coefficients from rng. The rng must
// not be shared concurrently.
func NewEncoder(gen *Generation, rng *rand.Rand) *Encoder {
	return &Encoder{gen: gen, rng: rng, fops: gen.params.fieldOps()}
}

// Next emits a fresh coded packet over the whole generation, drawn from the
// packet arena: the caller owns one reference and releases it when done
// (see the package ownership contract). Once the emission budget (if any)
// is exhausted, Next returns nil without consuming randomness.
func (e *Encoder) Next() *Packet {
	if e.budget > 0 && e.emitted >= e.budget {
		return nil
	}
	e.emitted++
	pk := GetPacket(e.gen.params)
	pk.Generation = e.gen.ID
	e.fill(pk)
	return pk
}

// fill overwrites pk with a fresh random combination of the generation.
func (e *Encoder) fill(pk *Packet) {
	fo := e.fops
	n := e.gen.params.GenerationSize
	coeffs := pk.Coeffs
	// Reject the (vanishingly unlikely) all-zero vector: it wastes a
	// transmission and is trivially non-innovative.
	for {
		nonZero := false
		for i := 0; i < n; i++ {
			v := fo.randElem(e.rng)
			fo.setElem(coeffs, i, v)
			if v != 0 {
				nonZero = true
			}
		}
		if nonZero {
			break
		}
	}
	for i := 0; i < n; i++ {
		fo.mulAdd(pk.Payload, e.gen.blocks[i], fo.elem(coeffs, i))
	}
}
