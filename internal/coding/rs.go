package coding

import (
	"fmt"

	"omnc/internal/gf256"
)

// maxRSShards is the number of distinct shards the systematic GF(2^8)
// Reed-Solomon code can produce: the n data shards plus the 256-n parity
// rows of the Cauchy generator. A rateless RS source cycles through them,
// so emission 256+k repeats shard k exactly — the structural reason
// source-only RS trails RLNC on lossy multihop paths.
const maxRSShards = 256

// RSEncoder emits the shards of a systematic Reed-Solomon code over one
// generation: shard j < n is source block j with the unit coefficient
// vector e_j, and shard r >= n is the Cauchy parity row
//
//	coeffs[c] = 1 / (x_r XOR y_c)   with x_r = r in [n, 256), y_c = c in [0, n)
//
// The x and y index sets are disjoint, so every square submatrix of the
// stacked [I; Cauchy] generator is invertible: any n distinct shards decode
// the generation (MDS). Shards ride the ordinary Packet wire format — the
// coefficient vector is explicit — so the destination's progressive
// Gauss-Jordan Decoder consumes them unchanged.
//
// RSEncoder implements Source. Like Encoder, emissions are drawn from the
// packet arena and the caller owns one reference per packet.
type RSEncoder struct {
	gen     *Generation
	next    int // next shard index, cycling [0, maxRSShards)
	budget  int // emissions allowed per generation; 0 = unlimited
	emitted int
}

// NewRSEncoder returns a systematic Reed-Solomon source for the
// generation. The GF(2^8) Cauchy construction caps GenerationSize at 255,
// which Params.Validate already guarantees, and ties the scheme to the
// default field: a GF(2^16) parameter set is rejected.
func NewRSEncoder(gen *Generation) (*RSEncoder, error) {
	if err := gen.params.Validate(); err != nil {
		return nil, err
	}
	if gen.params.Field != Field8 {
		return nil, fmt.Errorf("%w: Reed-Solomon is a GF(2^8) Cauchy construction", ErrInvalidField)
	}
	return &RSEncoder{gen: gen}, nil
}

// Shards returns the number of distinct shards the code can emit before it
// must repeat itself.
func (rs *RSEncoder) Shards() int { return maxRSShards }

// Next emits the next shard in sequence, cycling over the code's distinct
// shards, or nil once the emission budget is exhausted. The packet is drawn
// from the arena: the caller owns one reference.
func (rs *RSEncoder) Next() *Packet {
	if rs.budget > 0 && rs.emitted >= rs.budget {
		return nil
	}
	rs.emitted++
	shard := rs.next
	rs.next = (rs.next + 1) % maxRSShards
	pk := GetPacket(rs.gen.params)
	pk.Generation = rs.gen.ID
	rs.fill(pk, shard)
	return pk
}

// fill overwrites pk with the identified shard. GetPacket hands over zeroed
// buffers, so only the non-zero entries need writing.
func (rs *RSEncoder) fill(pk *Packet, shard int) {
	n := rs.gen.params.GenerationSize
	if shard < n {
		pk.Coeffs[shard] = 1
		copy(pk.Payload, rs.gen.blocks[shard])
		return
	}
	for c := 0; c < n; c++ {
		w := gf256.Inv(byte(shard) ^ byte(c))
		pk.Coeffs[c] = w
		gf256.MulAdd(pk.Payload, rs.gen.blocks[c], w)
	}
}

// ShardCoeffs writes the coefficient vector of the identified shard into
// dst (length GenerationSize) — exposed so tests can check the generator's
// MDS structure without decoding payloads.
func (rs *RSEncoder) ShardCoeffs(dst []byte, shard int) error {
	n := rs.gen.params.GenerationSize
	if len(dst) != n {
		return fmt.Errorf("coding: coeffs length %d, generation size %d", len(dst), n)
	}
	if shard < 0 || shard >= maxRSShards {
		return fmt.Errorf("coding: shard %d outside [0, %d)", shard, maxRSShards)
	}
	clear(dst)
	if shard < n {
		dst[shard] = 1
		return nil
	}
	for c := 0; c < n; c++ {
		dst[c] = gf256.Inv(byte(shard) ^ byte(c))
	}
	return nil
}
