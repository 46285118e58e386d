// Package modulation implements the constellations QuAMax supports (BPSK,
// QPSK, 16-QAM and the paper's future-work 64-QAM), the Gray bit-to-symbol
// mapping used by transmitters, the linear QuAMax variable-to-symbol
// transform T (paper §3.2.1), and the bitwise post-translation of Fig. 2 that
// converts QuAMax-transform output bits back to Gray-coded bits.
//
// Conventions. Square QAM symbols are products of one-dimensional PAM levels
// {−(L−1), …, −1, +1, …, +(L−1)} with L levels per dimension. Bits are
// handled as []byte of 0/1 values, most significant bit first within each
// per-dimension group, I-dimension group before Q-dimension group within each
// symbol — exactly the layout of paper Fig. 2 (bits q_{4i−3} q_{4i−2} index
// the I level, q_{4i−1} q_{4i} the Q level for 16-QAM).
package modulation

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
)

// Modulation identifies a constellation.
type Modulation int

// Supported modulations.
const (
	BPSK  Modulation = iota // 1 bit/symbol, real axis only
	QPSK                    // 2 bits/symbol
	QAM16                   // 4 bits/symbol
	QAM64                   // 6 bits/symbol (paper §8 future work)
)

// String returns the conventional name.
func (m Modulation) String() string {
	switch m {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16-QAM"
	case QAM64:
		return "64-QAM"
	}
	return fmt.Sprintf("Modulation(%d)", int(m))
}

// All lists every supported modulation in increasing order.
func All() []Modulation { return []Modulation{BPSK, QPSK, QAM16, QAM64} }

// Parse converts a name like "bpsk" or "16-QAM" to a Modulation.
func Parse(s string) (Modulation, error) {
	switch s {
	case "bpsk", "BPSK":
		return BPSK, nil
	case "qpsk", "QPSK":
		return QPSK, nil
	case "16qam", "16-QAM", "qam16", "QAM16":
		return QAM16, nil
	case "64qam", "64-QAM", "qam64", "QAM64":
		return QAM64, nil
	}
	return 0, fmt.Errorf("modulation: unknown name %q", s)
}

// BitsPerDim returns the bits per I (or Q) dimension: log2 of levels.
func (m Modulation) BitsPerDim() int {
	switch m {
	case BPSK, QPSK:
		return 1
	case QAM16:
		return 2
	case QAM64:
		return 3
	}
	panic("modulation: unknown modulation")
}

// HasQuadrature reports whether the constellation uses the Q dimension.
// Only BPSK is real-valued.
func (m Modulation) HasQuadrature() bool { return m != BPSK }

// Dims returns the number of active signal dimensions (1 or 2).
func (m Modulation) Dims() int {
	if m.HasQuadrature() {
		return 2
	}
	return 1
}

// BitsPerSymbol returns Q = log2 |O|.
func (m Modulation) BitsPerSymbol() int { return m.BitsPerDim() * m.Dims() }

// ConstellationSize returns |O| = 2^Q.
func (m Modulation) ConstellationSize() int { return 1 << m.BitsPerSymbol() }

// LevelsPerDim returns the number of PAM levels per dimension.
func (m Modulation) LevelsPerDim() int { return 1 << m.BitsPerDim() }

// Levels returns the PAM levels per dimension in increasing order:
// −(L−1), −(L−3), …, +(L−1).
func (m Modulation) Levels() []float64 {
	l := m.LevelsPerDim()
	out := make([]float64, l)
	for k := 0; k < l; k++ {
		out[k] = float64(2*k - (l - 1))
	}
	return out
}

// AvgSymbolEnergy returns E|v|² over the (unnormalized) constellation:
// 1 for BPSK, 2 for QPSK, 10 for 16-QAM, 42 for 64-QAM.
func (m Modulation) AvgSymbolEnergy() float64 {
	var perDim float64
	l := m.LevelsPerDim()
	for k := 0; k < l; k++ {
		lvl := float64(2*k - (l - 1))
		perDim += lvl * lvl
	}
	perDim /= float64(l)
	return perDim * float64(m.Dims())
}

// Constellation returns all |O| symbols, indexed by the natural-binary
// QuAMax-transform bit pattern (I bits high, Q bits low).
func (m Modulation) Constellation() []complex128 {
	n := m.ConstellationSize()
	out := make([]complex128, n)
	bits := make([]byte, m.BitsPerSymbol())
	for idx := 0; idx < n; idx++ {
		for b := range bits {
			bits[b] = byte(idx >> (len(bits) - 1 - b) & 1)
		}
		out[idx] = m.QuAMaxTransform(bits)
	}
	return out
}

// grayEncode converts a natural-binary index to its Gray code.
func grayEncode(k int) int { return k ^ (k >> 1) }

// grayDecode converts a Gray code to its natural-binary index.
func grayDecode(g int) int {
	k := 0
	for ; g > 0; g >>= 1 {
		k ^= g
	}
	return k
}

// bitsToIndex packs MSB-first 0/1 bytes into an integer.
func bitsToIndex(bits []byte) int {
	k := 0
	for _, b := range bits {
		k = k<<1 | int(b&1)
	}
	return k
}

// indexToBits unpacks an integer into n MSB-first 0/1 bytes, appending to dst.
func indexToBits(k, n int, dst []byte) []byte {
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, byte(k>>i&1))
	}
	return dst
}

// QuAMaxTransform implements the paper's linear transform T: the natural
// binary value of the per-dimension bit group selects the PAM level
// 2·bin(bits)−(L−1). For 16-QAM this is T = 4q₁+2q₂−3 per dimension
// (paper Fig. 2a); for BPSK it is T = 2q−1.
//
// bits must hold exactly BitsPerSymbol entries.
func (m Modulation) QuAMaxTransform(bits []byte) complex128 {
	bd := m.BitsPerDim()
	if len(bits) != m.BitsPerSymbol() {
		panic(fmt.Sprintf("modulation: QuAMaxTransform needs %d bits, got %d", m.BitsPerSymbol(), len(bits)))
	}
	l := m.LevelsPerDim()
	iLvl := float64(2*bitsToIndex(bits[:bd]) - (l - 1))
	if !m.HasQuadrature() {
		return complex(iLvl, 0)
	}
	qLvl := float64(2*bitsToIndex(bits[bd:]) - (l - 1))
	return complex(iLvl, qLvl)
}

// MapGray maps Gray-coded data bits to one symbol, the transmitter side of
// Fig. 2(d). bits must hold exactly BitsPerSymbol entries.
func (m Modulation) MapGray(bits []byte) complex128 {
	bd := m.BitsPerDim()
	if len(bits) != m.BitsPerSymbol() {
		panic(fmt.Sprintf("modulation: MapGray needs %d bits, got %d", m.BitsPerSymbol(), len(bits)))
	}
	l := m.LevelsPerDim()
	iLvl := float64(2*grayDecode(bitsToIndex(bits[:bd])) - (l - 1))
	if !m.HasQuadrature() {
		return complex(iLvl, 0)
	}
	qLvl := float64(2*grayDecode(bitsToIndex(bits[bd:])) - (l - 1))
	return complex(iLvl, qLvl)
}

// MapGrayVector maps Nt·BitsPerSymbol Gray bits to Nt symbols.
func (m Modulation) MapGrayVector(bits []byte) []complex128 {
	q := m.BitsPerSymbol()
	if len(bits)%q != 0 {
		panic("modulation: bit count not a multiple of bits/symbol")
	}
	out := make([]complex128, len(bits)/q)
	for i := range out {
		out[i] = m.MapGray(bits[i*q : (i+1)*q])
	}
	return out
}

// sliceLevel returns the index of the nearest PAM level to x.
func (m Modulation) sliceLevel(x float64) int {
	l := m.LevelsPerDim()
	// Levels are 2k−(L−1): invert and clamp.
	k := int(math.Round((x + float64(l-1)) / 2))
	if k < 0 {
		k = 0
	}
	if k >= l {
		k = l - 1
	}
	return k
}

// Slice returns the nearest constellation point to v (per-dimension
// quantization, valid for square QAM and exact for ML slicing of a single
// symbol).
func (m Modulation) Slice(v complex128) complex128 {
	l := m.LevelsPerDim()
	iLvl := float64(2*m.sliceLevel(real(v)) - (l - 1))
	if !m.HasQuadrature() {
		return complex(iLvl, 0)
	}
	qLvl := float64(2*m.sliceLevel(imag(v)) - (l - 1))
	return complex(iLvl, qLvl)
}

// DemapGray hard-slices v and returns the Gray-coded bits of the nearest
// constellation point, appending to dst. This is the receive-side demapper
// used by the linear detectors.
func (m Modulation) DemapGray(v complex128, dst []byte) []byte {
	bd := m.BitsPerDim()
	dst = indexToBits(grayEncode(m.sliceLevel(real(v))), bd, dst)
	if m.HasQuadrature() {
		dst = indexToBits(grayEncode(m.sliceLevel(imag(v))), bd, dst)
	}
	return dst
}

// DemapGrayVector hard-slices each symbol and concatenates the Gray bits.
func (m Modulation) DemapGrayVector(v []complex128) []byte {
	return m.AppendDemapGrayVector(nil, v)
}

// AppendDemapGrayVector appends DemapGrayVector(v) to dst, growing it once.
func (m Modulation) AppendDemapGrayVector(dst []byte, v []complex128) []byte {
	dst = slices.Grow(dst, len(v)*m.BitsPerSymbol())
	for _, s := range v {
		dst = m.DemapGray(s, dst)
	}
	return dst
}

// PostTranslate converts QuAMax-transform solution bits (natural binary per
// dimension, Fig. 2a) to the Gray-coded bits the transmitter sent (Fig. 2d).
// It is the per-dimension binary→Gray conversion; TestPaperTwoStep proves it
// equals the paper's column-flip + differential-encoding procedure.
// qbits must be a whole number of symbols; the result has the same length.
// It is the allocating form of AppendPostTranslate.
func (m Modulation) PostTranslate(qbits []byte) []byte {
	return m.AppendPostTranslate(make([]byte, 0, len(qbits)), qbits)
}

// AppendPostTranslate appends the post-translation of qbits to dst.
func (m Modulation) AppendPostTranslate(dst, qbits []byte) []byte {
	q := m.BitsPerSymbol()
	if len(qbits)%q != 0 {
		panic("modulation: PostTranslate bit count not a multiple of bits/symbol")
	}
	bd := m.BitsPerDim()
	for off := 0; off < len(qbits); off += bd {
		dst = indexToBits(grayEncode(bitsToIndex(qbits[off:off+bd])), bd, dst)
	}
	return dst
}

// GrayToQuAMaxBits is the inverse of PostTranslate: Gray data bits to the
// QuAMax-transform bit pattern of the same symbol (used to compute ground
// truth QUBO solutions in tests and metrics).
func (m Modulation) GrayToQuAMaxBits(gbits []byte) []byte {
	return m.AppendGrayToQuAMaxBits(make([]byte, 0, len(gbits)), gbits)
}

// AppendGrayToQuAMaxBits appends GrayToQuAMaxBits(gbits) to dst.
func (m Modulation) AppendGrayToQuAMaxBits(dst, gbits []byte) []byte {
	q := m.BitsPerSymbol()
	if len(gbits)%q != 0 {
		panic("modulation: GrayToQuAMaxBits bit count not a multiple of bits/symbol")
	}
	bd := m.BitsPerDim()
	for off := 0; off < len(gbits); off += bd {
		dst = indexToBits(grayDecode(bitsToIndex(gbits[off:off+bd])), bd, dst)
	}
	return dst
}

// PaperPostTranslate16QAM implements the two-step translation exactly as
// described in §3.2.1 for 16-QAM: (1) within each 4-bit group, if the second
// bit is 1, flip the third and fourth bits (intermediate code, Fig. 2b);
// (2) apply whole-group differential bit encoding g₁=b₁, g_k=b_{k−1}⊕b_k
// (Fig. 2c). Exported so tests can prove it equals PostTranslate.
func PaperPostTranslate16QAM(qbits []byte) []byte {
	if len(qbits)%4 != 0 {
		panic("modulation: PaperPostTranslate16QAM needs 4-bit groups")
	}
	out := make([]byte, len(qbits))
	for off := 0; off < len(qbits); off += 4 {
		b := [4]byte{qbits[off], qbits[off+1], qbits[off+2], qbits[off+3]}
		if b[1] == 1 { // intermediate code: flip bits 3 and 4
			b[2] ^= 1
			b[3] ^= 1
		}
		out[off] = b[0]
		out[off+1] = b[0] ^ b[1]
		out[off+2] = b[1] ^ b[2]
		out[off+3] = b[2] ^ b[3]
	}
	return out
}

// NearestSymbolDistance returns min |v−c| over constellation points c,
// a diagnostic used when validating slicers.
func (m Modulation) NearestSymbolDistance(v complex128) float64 {
	best := math.Inf(1)
	for _, c := range m.Constellation() {
		if d := cmplx.Abs(v - c); d < best {
			best = d
		}
	}
	return best
}
