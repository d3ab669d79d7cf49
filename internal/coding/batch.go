package coding

import (
	"fmt"

	"omnc/internal/gf256"
)

// BatchDecoder is the non-progressive strawman that Sec. 4 contrasts
// progressive Gauss-Jordan decoding against: it buffers raw packets and
// decodes the whole generation in one Gaussian-elimination pass once asked.
// Because it performs no on-the-fly independence check, it cannot tell when
// enough packets have arrived without attempting (and possibly wasting) a
// full elimination, and it buffers duplicate packets a progressive decoder
// would discard on arrival — the delay and memory effects the paper's
// implementation avoids. It exists for the decoding ablation
// (BenchmarkDecodeProgressive / BenchmarkDecodeBatch) and as a reference
// implementation to cross-check the progressive decoder against.
type BatchDecoder struct {
	gen     int
	params  Params
	packets []*Packet
	blocks  [][]byte
}

// NewBatchDecoder returns a batch decoder for the identified generation. The
// strawman eliminates with the GF(2^8) kernels directly, so it only supports
// the default field.
func NewBatchDecoder(generation int, params Params) (*BatchDecoder, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if params.Field != Field8 {
		return nil, fmt.Errorf("%w: batch decoder supports GF(2^8) only", ErrInvalidField)
	}
	return &BatchDecoder{gen: generation, params: params}, nil
}

// Add buffers a packet without any processing (ownership transfers).
func (d *BatchDecoder) Add(p *Packet) error {
	if p.Generation != d.gen {
		return fmt.Errorf("coding: packet generation %d, decoder generation %d", p.Generation, d.gen)
	}
	if len(p.Coeffs) != d.params.CoeffBytes() || len(p.Payload) != d.params.BlockSize {
		return fmt.Errorf("coding: malformed packet (%d coeffs, %d payload)", len(p.Coeffs), len(p.Payload))
	}
	d.packets = append(d.packets, p)
	return nil
}

// Buffered returns the number of packets held (duplicates included — the
// batch decoder cannot tell).
func (d *BatchDecoder) Buffered() int { return len(d.packets) }

// TryDecode runs one Gaussian elimination over everything buffered and
// reports whether the generation decoded. Each call re-eliminates from
// scratch; that is the point of the ablation.
func (d *BatchDecoder) TryDecode() bool {
	if d.blocks != nil {
		return true
	}
	n := d.params.GenerationSize
	if len(d.packets) < n {
		return false
	}
	// Working copies: elimination is destructive.
	coeffs := make([][]byte, len(d.packets))
	payloads := make([][]byte, len(d.packets))
	for i, p := range d.packets {
		coeffs[i] = append([]byte(nil), p.Coeffs...)
		payloads[i] = append([]byte(nil), p.Payload...)
	}

	// Forward elimination with partial "pivoting" (first non-zero).
	pivotRow := make([]int, n)
	for i := range pivotRow {
		pivotRow[i] = -1
	}
	row := 0
	for col := 0; col < n && row < len(coeffs); col++ {
		sel := -1
		for r := row; r < len(coeffs); r++ {
			if coeffs[r][col] != 0 {
				sel = r
				break
			}
		}
		if sel < 0 {
			continue
		}
		coeffs[row], coeffs[sel] = coeffs[sel], coeffs[row]
		payloads[row], payloads[sel] = payloads[sel], payloads[row]
		inv := gf256.Inv(coeffs[row][col])
		gf256.Scale(coeffs[row], inv)
		gf256.Scale(payloads[row], inv)
		for r := 0; r < len(coeffs); r++ {
			if r == row {
				continue
			}
			if f := coeffs[r][col]; f != 0 {
				gf256.MulAdd(coeffs[r], coeffs[row], f)
				gf256.MulAdd(payloads[r], payloads[row], f)
			}
		}
		pivotRow[col] = row
		row++
	}
	if row < n {
		return false // rank deficient: keep buffering
	}
	blocks := make([][]byte, n)
	for col := 0; col < n; col++ {
		blocks[col] = payloads[pivotRow[col]]
	}
	d.blocks = blocks
	return true
}

// Decoded reports whether a successful TryDecode has happened.
func (d *BatchDecoder) Decoded() bool { return d.blocks != nil }

// AppendBatch emits count re-encoded packets in one pass and appends them to
// dst. It is bit-identical to count sequential Next calls — every weight
// vector is drawn up front in emission order, consuming exactly the RNG
// sequence the sequential calls would (including the all-zero retry) — but
// the combination runs stored-rows-outer, outputs-inner, so each buffered
// row is loaded once and its coefficient draw amortized across the whole
// batch instead of being re-streamed per packet. With nothing buffered dst
// is returned unchanged (Next's nil case).
//
// The caller owns one reference per appended packet, as with Next.
func (r *Recoder) AppendBatch(dst []*Packet, count int) []*Packet {
	m := r.m
	if count <= 0 || m.rows == 0 {
		return dst
	}
	rows := m.rows
	fo := m.fops
	es := m.params.Field.elemSize()
	weights := getBuf(count * rows * es)
	defer putBuf(weights)
	for j := 0; j < count; j++ {
		wj := weights[j*rows*es : (j+1)*rows*es]
		for {
			nonZero := false
			for i := 0; i < rows; i++ {
				v := fo.randElem(r.rng)
				fo.setElem(wj, i, v)
				if v != 0 {
					nonZero = true
				}
			}
			if nonZero {
				break
			}
		}
	}
	start := len(dst)
	for j := 0; j < count; j++ {
		pk := GetPacket(m.params) // zeroed: the accumulators start empty
		pk.Generation = r.gen
		dst = append(dst, pk)
	}
	// Field addition is XOR, so accumulating row-by-row across packets is
	// exactly the per-packet accumulation reordered — identical bytes.
	for i := 0; i < rows; i++ {
		rc, rp := m.coeffs[i], m.payloads[i]
		for j := 0; j < count; j++ {
			if w := fo.elem(weights[j*rows*es:(j+1)*rows*es], i); w != 0 {
				pk := dst[start+j]
				fo.mulAdd(pk.Coeffs, rc, w)
				fo.mulAdd(pk.Payload, rp, w)
			}
		}
	}
	return dst
}

// NextBatch emits count re-encoded packets in one amortized pass; it returns
// nil when nothing has been buffered yet. See AppendBatch for the contract.
func (r *Recoder) NextBatch(count int) []*Packet {
	return r.AppendBatch(nil, count)
}

// Data returns the decoded generation after a successful TryDecode, nil
// before.
func (d *BatchDecoder) Data() []byte {
	if d.blocks == nil {
		return nil
	}
	out := make([]byte, 0, d.params.GenerationSize*d.params.BlockSize)
	for _, b := range d.blocks {
		out = append(out, b...)
	}
	return out
}
