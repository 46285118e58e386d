package linalg

import (
	"math"
	"math/cmplx"
)

// QR holds the thin QR factorization a = Q·R with Q (rows×cols) having
// orthonormal columns and R (cols×cols) upper triangular with real,
// non-negative diagonal. It is the preprocessing step of the sphere decoder
// (paper §2.1: vˆ = argmin ‖ȳ − Rv‖², ȳ = Q*y).
type QR struct {
	Q *Mat
	R *Mat
}

// QRDecompose computes the thin QR factorization by Householder reflections.
// Requires rows ≥ cols.
func QRDecompose(a *Mat) *QR {
	rows, cols := a.Rows, a.Cols
	if rows < cols {
		panic("linalg: QRDecompose requires rows >= cols")
	}
	r := a.Clone()
	// Accumulate Q implicitly: start from identity (rows×rows), apply the
	// same reflections, then keep the first cols columns.
	qFull := Identity(rows)

	v := make([]complex128, rows)
	for k := 0; k < cols; k++ {
		// Build Householder vector for column k below the diagonal.
		var normx float64
		for i := k; i < rows; i++ {
			normx += absSq(r.At(i, k))
		}
		normx = math.Sqrt(normx)
		if normx == 0 {
			continue
		}
		akk := r.At(k, k)
		// alpha = -e^{i·arg(akk)}·‖x‖ makes the transformed diagonal
		// entry real and positive after negation.
		phase := complex(1, 0)
		if akk != 0 {
			phase = akk / complex(cmplx.Abs(akk), 0)
		}
		alpha := -phase * complex(normx, 0)

		var vnorm2 float64
		for i := k; i < rows; i++ {
			v[i] = r.At(i, k)
		}
		v[k] -= alpha
		for i := k; i < rows; i++ {
			vnorm2 += absSq(v[i])
		}
		if vnorm2 == 0 {
			continue
		}
		beta := complex(2/vnorm2, 0)

		// r = (I − β v vᴴ) r for columns k..cols-1.
		for j := k; j < cols; j++ {
			var dot complex128
			for i := k; i < rows; i++ {
				dot += cmplx.Conj(v[i]) * r.At(i, j)
			}
			dot *= beta
			for i := k; i < rows; i++ {
				r.Set(i, j, r.At(i, j)-dot*v[i])
			}
		}
		// qFull = qFull (I − β v vᴴ): apply reflection on the right.
		for i := 0; i < rows; i++ {
			var dot complex128
			for l := k; l < rows; l++ {
				dot += qFull.At(i, l) * v[l]
			}
			dot *= beta
			for l := k; l < rows; l++ {
				qFull.Set(i, l, qFull.At(i, l)-dot*cmplx.Conj(v[l]))
			}
		}
	}

	// Force R's diagonal real-positive (Householder above already arranges
	// sign; normalize residual phase defensively) and zero the subdiagonal.
	for k := 0; k < cols; k++ {
		d := r.At(k, k)
		if imag(d) != 0 || real(d) < 0 {
			if cmplx.Abs(d) == 0 {
				continue
			}
			ph := d / complex(cmplx.Abs(d), 0)
			// Scale row k of R by conj(phase) and column k of Q by phase.
			for j := k; j < cols; j++ {
				r.Set(k, j, r.At(k, j)*cmplx.Conj(ph))
			}
			for i := 0; i < rows; i++ {
				qFull.Set(i, k, qFull.At(i, k)*ph)
			}
		}
		for i := k + 1; i < rows; i++ {
			r.Set(i, k, 0)
		}
	}

	// Thin factors.
	q := NewMat(rows, cols)
	for i := 0; i < rows; i++ {
		copy(q.Data[i*cols:(i+1)*cols], qFull.Data[i*rows:i*rows+cols])
	}
	rThin := NewMat(cols, cols)
	for i := 0; i < cols; i++ {
		copy(rThin.Data[i*cols:(i+1)*cols], r.Data[i*cols:i*cols+cols])
	}
	return &QR{Q: q, R: rThin}
}

func absSq(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }

// RotateReceived returns ȳ = Qᴴ·y, the rotated receive vector fed to the
// sphere decoder's triangular search.
func (f *QR) RotateReceived(y []complex128) []complex128 {
	return ConjMulVec(f.Q, y)
}

// RealDecomposition converts the complex system y = H v + n into the
// equivalent real-valued system used by the sphere decoder:
//
//	[Re y]   [Re H  −Im H] [Re v]
//	[Im y] = [Im H   Re H] [Im v]
//
// For modulations with no imaginary component (BPSK) use RealDecompositionI,
// which keeps only the Re v columns.
func RealDecomposition(h *Mat) *Mat {
	out := NewMat(2*h.Rows, 2*h.Cols)
	for i := 0; i < h.Rows; i++ {
		for j := 0; j < h.Cols; j++ {
			re := complex(real(h.At(i, j)), 0)
			im := complex(imag(h.At(i, j)), 0)
			out.Set(i, j, re)
			out.Set(i, j+h.Cols, -im)
			out.Set(i+h.Rows, j, im)
			out.Set(i+h.Rows, j+h.Cols, re)
		}
	}
	return out
}

// RealDecompositionI is RealDecomposition restricted to real-valued symbol
// vectors (BPSK): the stacked 2Nr×Nt real matrix [Re H; Im H].
func RealDecompositionI(h *Mat) *Mat {
	out := NewMat(2*h.Rows, h.Cols)
	for i := 0; i < h.Rows; i++ {
		for j := 0; j < h.Cols; j++ {
			out.Set(i, j, complex(real(h.At(i, j)), 0))
			out.Set(i+h.Rows, j, complex(imag(h.At(i, j)), 0))
		}
	}
	return out
}

// StackReal returns the real-stacked receive vector [Re y; Im y] as a complex
// slice with zero imaginary parts, matching RealDecomposition's layout.
func StackReal(y []complex128) []complex128 {
	out := make([]complex128, 2*len(y))
	for i, v := range y {
		out[i] = complex(real(v), 0)
		out[i+len(y)] = complex(imag(v), 0)
	}
	return out
}
