// Package linalg implements the dense complex linear algebra the QuAMax
// pipeline needs: Hermitian products for the Ising reduction, Householder QR
// for the sphere decoder, and Gaussian-elimination solvers for the
// zero-forcing and MMSE baselines.
//
// Everything is written against complex128 from scratch (stdlib only). The
// package favours clarity and numerical robustness (partial pivoting,
// column-norm ordering) over BLAS-level performance: MIMO matrices in this
// repository are at most a few hundred elements per side.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"strings"
	"sync"
)

// Mat is a dense row-major complex matrix.
type Mat struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols, row-major
}

// NewMat returns a zero matrix with the given shape.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// MatFromRows builds a matrix from row slices. All rows must have equal length.
func MatFromRows(rows [][]complex128) *Mat {
	if len(rows) == 0 {
		return NewMat(0, 0)
	}
	m := NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Mat) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Mat) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// String renders the matrix for debugging.
func (m *Mat) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "%8.4f%+8.4fi ", real(m.At(i, j)), imag(m.At(i, j)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Mul returns a·b. Panics on dimension mismatch.
func Mul(a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulVec returns a·x as a new vector.
func MulVec(a *Mat, x []complex128) []complex128 {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %dx%d · %d", a.Rows, a.Cols, len(x)))
	}
	out := make([]complex128, a.Rows)
	for i := 0; i < a.Rows; i++ {
		var s complex128
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// ConjTranspose returns the Hermitian transpose aᴴ.
func ConjTranspose(a *Mat) *Mat {
	out := NewMat(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Set(j, i, cmplx.Conj(a.At(i, j)))
		}
	}
	return out
}

// Gram returns aᴴ·a, the (Hermitian) Gram matrix used throughout the Ising
// reduction. The upper triangle accumulates one row outer product at a time
// over contiguous row slices — every entry still sums its terms in row order,
// so the result is the column-walk's bit for bit — and is then mirrored.
func Gram(a *Mat) *Mat {
	n := a.Cols
	out := NewMat(n, n)
	for r := 0; r < a.Rows; r++ {
		row := a.Data[r*n : (r+1)*n]
		for i, v := range row {
			ci, acc := cmplx.Conj(v), out.Data[i*n:(i+1)*n]
			for j := i; j < n; j++ {
				acc[j] += ci * row[j]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out.Data[j*n+i] = cmplx.Conj(out.Data[i*n+j])
		}
	}
	return out
}

// GramUpper adds the upper triangle of aᴴ·a into re and, unless im is empty,
// into im: entry (i, j ≥ i) at i·Cols+j, with no matrix allocated. Each entry
// sums a's rows in Gram's order, and Re(conj(u)·v) = u_r·v_r + u_i·v_i and
// Im = u_r·v_i − u_i·v_r round as Gram's complex products do, so every entry
// is Gram's bit for bit; a caller needing only the real part skips the rest.
// The columns are read from a pooled transposed copy, and four entries of a
// row at a time are summed in registers and stored once.
func GramUpper(re, im []float64, a *Mat) {
	n, m := a.Cols, a.Rows
	buf := colScratch.Get().(*[]float64)
	defer colScratch.Put(buf)
	*buf = slices.Grow((*buf)[:0], 3*n*m)[:3*n*m]
	cr, ci, nci := (*buf)[:n*m], (*buf)[n*m:2*n*m], (*buf)[2*n*m:] // column c at c·m: real, imaginary, −imaginary
	for r := 0; r < m; r++ {
		for c, v := range a.Data[r*n : (r+1)*n] {
			cr[c*m+r], ci[c*m+r], nci[c*m+r] = real(v), imag(v), -imag(v)
		}
	}
	for i := 0; i < n; i++ {
		gramRow(re[i*n:(i+1)*n], i, m, cr[i*m:][:m], ci[i*m:][:m], cr, ci)
		if len(im) > 0 {
			// u_r·v_i − u_i·v_r is u_r·v_i + (−u_i)·v_r exactly.
			gramRow(im[i*n:(i+1)*n], i, m, cr[i*m:][:m], nci[i*m:][:m], ci, cr)
		}
	}
}

// gramRow adds Σ_r x[r]·b_j[r] + y[r]·d_j[r] into out[j] for every j ≥ i, in
// r's order, where b_j and d_j are column j (m entries each) of b and d.
func gramRow(out []float64, i, m int, x, y, b, d []float64) {
	y = y[:len(x)]
	j := i
	for ; j+4 <= len(out); j += 4 {
		b0, b1, b2, b3 := b[j*m:][:len(x)], b[(j+1)*m:][:len(x)], b[(j+2)*m:][:len(x)], b[(j+3)*m:][:len(x)]
		d0, d1, d2, d3 := d[j*m:][:len(x)], d[(j+1)*m:][:len(x)], d[(j+2)*m:][:len(x)], d[(j+3)*m:][:len(x)]
		s0, s1, s2, s3 := out[j], out[j+1], out[j+2], out[j+3]
		for r, u := range x {
			v := y[r]
			s0 += u*b0[r] + v*d0[r]
			s1 += u*b1[r] + v*d1[r]
			s2 += u*b2[r] + v*d2[r]
			s3 += u*b3[r] + v*d3[r]
		}
		out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
	}
	for ; j < len(out); j++ {
		bj, dj, s := b[j*m:][:len(x)], d[j*m:][:len(x)], out[j]
		for r, u := range x {
			s += u*bj[r] + y[r]*dj[r]
		}
		out[j] = s
	}
}

// colScratch pools GramUpper's transposed copies.
var colScratch = sync.Pool{New: func() any { return new([]float64) }}

// ConjMulVec returns aᴴ·y, the matched-filter output.
func ConjMulVec(a *Mat, y []complex128) []complex128 {
	if a.Rows != len(y) {
		panic("linalg: ConjMulVec dimension mismatch")
	}
	out := make([]complex128, a.Cols)
	for j := 0; j < a.Cols; j++ {
		var s complex128
		for i := 0; i < a.Rows; i++ {
			s += cmplx.Conj(a.At(i, j)) * y[i]
		}
		out[j] = s
	}
	return out
}

// Sub returns a−b.
func Sub(a, b *Mat) *Mat {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: Sub dimension mismatch")
	}
	out := NewMat(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// VecSub returns a−b.
func VecSub(a, b []complex128) []complex128 {
	if len(a) != len(b) {
		panic("linalg: VecSub length mismatch")
	}
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Norm2 returns ‖x‖², the squared Euclidean norm.
func Norm2(x []complex128) float64 {
	var s float64
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s
}

// Norm returns ‖x‖.
func Norm(x []complex128) float64 { return math.Sqrt(Norm2(x)) }

// MaxAbsDiff returns max |a_ij − b_ij|, a test helper for approximate equality.
func MaxAbsDiff(a, b *Mat) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	var m float64
	for i := range a.Data {
		if d := cmplx.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// ErrSingular is returned when a solve or inverse meets a (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// eliminate solves a·X = B for square a by Gaussian elimination with partial
// pivoting, on a private copy of a. x is n×k, holds B on entry and X on
// return. The k right-hand sides ride one elimination, and each of them sees
// exactly the operation sequence a lone right-hand side would (row swap,
// x[r] -= f·x[col] in elimination order, then back substitution), so a
// column of X does not depend on which other columns were solved beside it.
func eliminate(a, x *Mat) error {
	n, k := a.Rows, x.Cols
	m := a.Clone()
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in column.
		p, best := col, cmplx.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := cmplx.Abs(m.At(r, col)); v > best {
				p, best = r, v
			}
		}
		if best == 0 || math.IsNaN(best) {
			return ErrSingular
		}
		mc, xc := m.Data[col*n:(col+1)*n], x.Data[col*k:(col+1)*k]
		if p != col {
			swapRows(mc, m.Data[p*n:(p+1)*n])
			swapRows(xc, x.Data[p*k:(p+1)*k])
		}
		pivot := mc[col]
		for r := col + 1; r < n; r++ {
			mr := m.Data[r*n : (r+1)*n]
			f := mr[col] / pivot
			if f == 0 {
				continue
			}
			mr[col] = 0
			for j := col + 1; j < n; j++ {
				mr[j] -= f * mc[j]
			}
			for j, v := range xc {
				x.Data[r*k+j] -= f * v
			}
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		xi := x.Data[i*k : (i+1)*k]
		for j := i + 1; j < n; j++ {
			u := m.Data[i*n+j]
			for c, v := range x.Data[j*k : (j+1)*k] {
				xi[c] -= u * v
			}
		}
		for c := range xi {
			xi[c] /= m.Data[i*n+i]
		}
	}
	return nil
}

func swapRows(a, b []complex128) {
	for j := range a {
		a[j], b[j] = b[j], a[j]
	}
}

// Solve solves a·x = b for square a via Gaussian elimination with partial
// pivoting. a and b are not modified.
func Solve(a *Mat, b []complex128) ([]complex128, error) {
	if a.Cols != a.Rows || len(b) != a.Rows {
		panic("linalg: Solve requires square a and matching b")
	}
	x := &Mat{Rows: a.Rows, Cols: 1, Data: append([]complex128(nil), b...)}
	if err := eliminate(a, x); err != nil {
		return nil, err
	}
	return x.Data, nil
}

// Inverse returns a⁻¹ for square a: one elimination over the identity's n
// unit vectors, O(n³).
func Inverse(a *Mat) (*Mat, error) {
	if a.Cols != a.Rows {
		panic("linalg: Inverse requires a square matrix")
	}
	inv := Identity(a.Rows)
	if err := eliminate(a, inv); err != nil {
		return nil, err
	}
	return inv, nil
}

// PseudoInverse returns (aᴴa)⁻¹aᴴ, the left pseudo-inverse used by the
// zero-forcing detector. Requires full column rank.
func PseudoInverse(a *Mat) (*Mat, error) {
	gramInv, err := Inverse(Gram(a))
	if err != nil {
		return nil, err
	}
	return Mul(gramInv, ConjTranspose(a)), nil
}

// RightPseudoInverse returns aᴴ(aaᴴ)⁻¹, the right pseudo-inverse (a·R = I)
// used by the downlink channel-inversion precoder. Requires full row rank.
func RightPseudoInverse(a *Mat) (*Mat, error) {
	gramInv, err := Inverse(Gram(ConjTranspose(a)))
	if err != nil {
		return nil, err
	}
	return Mul(ConjTranspose(a), gramInv), nil
}
