package linalg

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"quamax/internal/rng"
)

// solveRef and inverseRef are the solver as it stood before Solve and Inverse
// moved onto one shared elimination: a clone and a full elimination per
// right-hand side, and one Solve per unit vector. They are the reference the
// bit-identity test compares against; do not "fix" them.
func solveRef(a *Mat, b []complex128) ([]complex128, error) {
	n := a.Rows
	m := a.Clone()
	x := make([]complex128, n)
	copy(x, b)
	for col := 0; col < n; col++ {
		p, best := col, cmplx.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := cmplx.Abs(m.At(r, col)); v > best {
				p, best = r, v
			}
		}
		if best == 0 || math.IsNaN(best) {
			return nil, ErrSingular
		}
		if p != col {
			for j := 0; j < n; j++ {
				m.Data[col*n+j], m.Data[p*n+j] = m.Data[p*n+j], m.Data[col*n+j]
			}
			x[col], x[p] = x[p], x[col]
		}
		pivot := m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) / pivot
			if f == 0 {
				continue
			}
			m.Set(r, col, 0)
			for j := col + 1; j < n; j++ {
				m.Set(r, j, m.At(r, j)-f*m.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

func inverseRef(a *Mat) (*Mat, error) {
	n := a.Rows
	inv := NewMat(n, n)
	e := make([]complex128, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := solveRef(a, e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// sameBits compares two complex slices bit for bit, so a NaN matches only the
// same NaN and −0 does not match +0.
func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// checkInverseMatchesRef asserts Inverse and Solve agree with the references
// exactly: the same error, or the same bits.
func checkInverseMatchesRef(t *testing.T, name string, a *Mat, b []complex128) {
	t.Helper()
	orig := a.Clone()
	got, gotErr := Inverse(a)
	want, wantErr := inverseRef(a)
	if !errors.Is(gotErr, wantErr) || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: Inverse error %v, reference %v", name, gotErr, wantErr)
	}
	if gotErr == nil && !sameBits(got.Data, want.Data) {
		t.Fatalf("%s: Inverse differs from the column-by-column reference", name)
	}
	x, xErr := Solve(a, b)
	xr, xrErr := solveRef(a, b)
	if (xErr == nil) != (xrErr == nil) || !errors.Is(xErr, xrErr) {
		t.Fatalf("%s: Solve error %v, reference %v", name, xErr, xrErr)
	}
	if xErr == nil && !sameBits(x, xr) {
		t.Fatalf("%s: Solve differs from the reference", name)
	}
	if !sameBits(a.Data, orig.Data) {
		t.Fatalf("%s: input matrix mutated", name)
	}
}

func TestInverseBitIdenticalToSolvePerColumn(t *testing.T) {
	src := rng.New(15)
	vec := func(n int) []complex128 {
		b := make([]complex128, n)
		for i := range b {
			b[i] = src.ComplexNorm()
		}
		return b
	}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 16, 48, 64} {
		for trial := 0; trial < 4; trial++ {
			checkInverseMatchesRef(t, "random", randMat(src, n, n), vec(n))
			// The Gram matrices the detectors actually invert.
			checkInverseMatchesRef(t, "gram", Gram(randMat(src, n+trial, n)), vec(n))
		}
		if n < 2 {
			continue
		}
		// A zero on the diagonal and a dominant last row force a row swap at
		// the first column and again later.
		swap := randMat(src, n, n)
		swap.Set(0, 0, 0)
		for j := 0; j < n; j++ {
			swap.Set(n-1, j, swap.At(n-1, j)*100)
		}
		checkInverseMatchesRef(t, "row swaps", swap, vec(n))
		// Zeros below the first pivot make f == 0, the skipped-row branch.
		zeroMul := randMat(src, n, n)
		for r := 1; r < n; r += 2 {
			zeroMul.Set(r, 0, 0)
		}
		checkInverseMatchesRef(t, "zero multiplier", zeroMul, vec(n))
		// Two equal rows: singular to working precision or absurdly
		// conditioned; either way both sides must say the same thing.
		sing := randMat(src, n, n)
		copy(sing.Data[(n-1)*n:], sing.Data[:n])
		checkInverseMatchesRef(t, "equal rows", sing, vec(n))
		checkInverseMatchesRef(t, "all zero", NewMat(n, n), vec(n))
		for _, bad := range []complex128{cmplx.NaN(), cmplx.Inf(), complex(math.NaN(), 1)} {
			for _, at := range [][2]int{{0, 0}, {n - 1, 0}, {n - 1, n - 1}, {0, n - 1}} {
				poisoned := randMat(src, n, n)
				poisoned.Set(at[0], at[1], bad)
				checkInverseMatchesRef(t, "non-finite entry", poisoned, vec(n))
			}
		}
	}
	if _, err := Inverse(NewMat(3, 3)); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero matrix: got %v, want ErrSingular", err)
	}
}
