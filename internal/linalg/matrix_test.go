package linalg

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"quamax/internal/rng"
)

func randMat(src *rng.Source, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = src.ComplexNorm()
	}
	return m
}

func TestMulIdentity(t *testing.T) {
	src := rng.New(1)
	a := randMat(src, 4, 4)
	got := Mul(a, Identity(4))
	if MaxAbsDiff(a, got) > 1e-12 {
		t.Fatalf("A·I != A, diff %g", MaxAbsDiff(a, got))
	}
	got = Mul(Identity(4), a)
	if MaxAbsDiff(a, got) > 1e-12 {
		t.Fatalf("I·A != A, diff %g", MaxAbsDiff(a, got))
	}
}

func TestMulKnown(t *testing.T) {
	a := MatFromRows([][]complex128{{1, 2}, {3, 4}})
	b := MatFromRows([][]complex128{{5, 6}, {7, 8}})
	want := MatFromRows([][]complex128{{19, 22}, {43, 50}})
	if got := Mul(a, b); MaxAbsDiff(want, got) > 1e-12 {
		t.Fatalf("Mul known product wrong:\n%v", got)
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	src := rng.New(2)
	a := randMat(src, 5, 3)
	x := make([]complex128, 3)
	for i := range x {
		x[i] = src.ComplexNorm()
	}
	xm := NewMat(3, 1)
	copy(xm.Data, x)
	want := Mul(a, xm)
	got := MulVec(a, x)
	for i := range got {
		if cmplx.Abs(got[i]-want.At(i, 0)) > 1e-12 {
			t.Fatalf("MulVec mismatch at %d", i)
		}
	}
}

func TestGramIsHermitianAndMatchesNaive(t *testing.T) {
	src := rng.New(3)
	a := randMat(src, 6, 4)
	g := Gram(a)
	naive := Mul(ConjTranspose(a), a)
	if MaxAbsDiff(g, naive) > 1e-10 {
		t.Fatalf("Gram != AᴴA, diff %g", MaxAbsDiff(g, naive))
	}
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < g.Cols; j++ {
			if cmplx.Abs(g.At(i, j)-cmplx.Conj(g.At(j, i))) > 1e-10 {
				t.Fatalf("Gram not Hermitian at (%d,%d)", i, j)
			}
		}
	}
}

// gramColumnWalk is the loop Gram ran before it went row-outer: one entry at
// a time, walking two columns of a. Kept as the reference for the bit-identity
// below.
func gramColumnWalk(a *Mat) *Mat {
	out := NewMat(a.Cols, a.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := i; j < a.Cols; j++ {
			var s complex128
			for r := 0; r < a.Rows; r++ {
				s += cmplx.Conj(a.At(r, i)) * a.At(r, j)
			}
			out.Set(i, j, s)
			if i != j {
				out.Set(j, i, cmplx.Conj(s))
			}
		}
	}
	return out
}

// The row-outer Gram sums every entry's terms in the same (row) order as the
// column walk, so the two must agree to the last bit — compiled channels, and
// with them pin_golden.json, hang off these values.
func TestGramMatchesColumnWalkBitForBit(t *testing.T) {
	src := rng.New(41)
	for _, shape := range [][2]int{{1, 1}, {3, 5}, {8, 8}, {12, 7}, {48, 48}, {0, 4}} {
		a := randMat(src, shape[0], shape[1])
		got, want := Gram(a), gramColumnWalk(a)
		for k := range want.Data {
			if math.Float64bits(real(got.Data[k])) != math.Float64bits(real(want.Data[k])) ||
				math.Float64bits(imag(got.Data[k])) != math.Float64bits(imag(want.Data[k])) {
				t.Fatalf("%d×%d: entry %d is %v, the column walk gives %v", shape[0], shape[1], k, got.Data[k], want.Data[k])
			}
		}
	}
}

func TestConjMulVecMatchesNaive(t *testing.T) {
	src := rng.New(4)
	a := randMat(src, 5, 3)
	y := make([]complex128, 5)
	for i := range y {
		y[i] = src.ComplexNorm()
	}
	want := MulVec(ConjTranspose(a), y)
	got := ConjMulVec(a, y)
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ConjMulVec mismatch at %d", i)
		}
	}
}

func TestSolveRoundTrip(t *testing.T) {
	src := rng.New(5)
	for trial := 0; trial < 25; trial++ {
		n := 1 + src.Intn(8)
		a := randMat(src, n, n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = src.ComplexNorm()
		}
		b := MulVec(a, x)
		got, err := Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range x {
			if cmplx.Abs(got[i]-x[i]) > 1e-8 {
				t.Fatalf("trial %d: solve error %g at %d", trial, cmplx.Abs(got[i]-x[i]), i)
			}
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := MatFromRows([][]complex128{{1, 2}, {2, 4}})
	if _, err := Solve(a, []complex128{1, 1}); err == nil {
		t.Fatal("expected ErrSingular for rank-deficient matrix")
	}
}

func TestSolveDoesNotMutateInputs(t *testing.T) {
	src := rng.New(6)
	a := randMat(src, 4, 4)
	aCopy := a.Clone()
	b := []complex128{1, 2, 3, 4}
	bCopy := append([]complex128(nil), b...)
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(a, aCopy) != 0 {
		t.Fatal("Solve mutated a")
	}
	for i := range b {
		if b[i] != bCopy[i] {
			t.Fatal("Solve mutated b")
		}
	}
}

func TestInverse(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 10; trial++ {
		n := 1 + src.Intn(6)
		a := randMat(src, n, n)
		inv, err := Inverse(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := MaxAbsDiff(Mul(a, inv), Identity(n)); d > 1e-8 {
			t.Fatalf("trial %d: A·A⁻¹ != I, diff %g", trial, d)
		}
	}
}

func TestPseudoInverseLeftInverse(t *testing.T) {
	src := rng.New(8)
	a := randMat(src, 8, 4)
	pinv, err := PseudoInverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(Mul(pinv, a), Identity(4)); d > 1e-8 {
		t.Fatalf("pinv·A != I, diff %g", d)
	}
}

func TestRightPseudoInverseRightInverse(t *testing.T) {
	src := rng.New(81)
	a := randMat(src, 4, 8)
	pinv, err := RightPseudoInverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(Mul(a, pinv), Identity(4)); d > 1e-8 {
		t.Fatalf("A·pinv != I, diff %g", d)
	}
	if _, err := RightPseudoInverse(NewMat(2, 3)); err == nil {
		t.Fatal("rank-deficient matrix accepted")
	}
}

func TestQRProperties(t *testing.T) {
	src := rng.New(9)
	for trial := 0; trial < 20; trial++ {
		rows := 2 + src.Intn(8)
		cols := 1 + src.Intn(rows)
		a := randMat(src, rows, cols)
		f := QRDecompose(a)
		// Reconstruction.
		if d := MaxAbsDiff(Mul(f.Q, f.R), a); d > 1e-9 {
			t.Fatalf("trial %d: QR != A, diff %g", trial, d)
		}
		// Orthonormal columns.
		if d := MaxAbsDiff(Gram(f.Q), Identity(cols)); d > 1e-9 {
			t.Fatalf("trial %d: QᴴQ != I, diff %g", trial, d)
		}
		// Upper-triangular with real non-negative diagonal.
		for i := 0; i < cols; i++ {
			for j := 0; j < i; j++ {
				if cmplx.Abs(f.R.At(i, j)) > 1e-10 {
					t.Fatalf("trial %d: R not upper triangular at (%d,%d)", trial, i, j)
				}
			}
			d := f.R.At(i, i)
			if math.Abs(imag(d)) > 1e-10 || real(d) < -1e-10 {
				t.Fatalf("trial %d: R diagonal not real non-negative: %v", trial, d)
			}
		}
	}
}

func TestQRRotatePreservesResidual(t *testing.T) {
	// ‖y − Hv‖² == ‖ȳ − Rv‖² + const for thin QR when y ∈ range(H)+noise:
	// the sphere decoder relies on argmin equality; check that for square H
	// the norms match exactly.
	src := rng.New(10)
	h := randMat(src, 4, 4)
	v := []complex128{1, -1, 1i, -1i}
	y := MulVec(h, v)
	for i := range y {
		y[i] += src.ComplexNorm() * 0.1
	}
	f := QRDecompose(h)
	ybar := f.RotateReceived(y)
	lhs := Norm2(VecSub(y, MulVec(h, v)))
	rhs := Norm2(VecSub(ybar, MulVec(f.R, v)))
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("residual mismatch: %g vs %g", lhs, rhs)
	}
}

func TestRealDecomposition(t *testing.T) {
	src := rng.New(11)
	h := randMat(src, 3, 2)
	v := []complex128{complex(1, -1), complex(-3, 2)}
	y := MulVec(h, v)

	hr := RealDecomposition(h)
	vr := []complex128{1, -3, -1, 2} // [Re v; Im v]
	yr := MulVec(hr, vr)
	want := StackReal(y)
	for i := range yr {
		if cmplx.Abs(yr[i]-want[i]) > 1e-10 {
			t.Fatalf("RVD mismatch at %d: %v vs %v", i, yr[i], want[i])
		}
	}

	hri := RealDecompositionI(h)
	vReal := []complex128{1, -3}
	yri := MulVec(hri, vReal)
	wantI := StackReal(MulVec(h, vReal))
	for i := range yri {
		if cmplx.Abs(yri[i]-wantI[i]) > 1e-10 {
			t.Fatalf("RVD-I mismatch at %d", i)
		}
	}
}

// Property: (A·B)ᴴ == Bᴴ·Aᴴ for random small matrices.
func TestConjTransposeProductProperty(t *testing.T) {
	src := rng.New(12)
	f := func(seed int64) bool {
		s := rng.New(seed)
		a := randMat(s, 3, 4)
		b := randMat(s, 4, 2)
		lhs := ConjTranspose(Mul(a, b))
		rhs := Mul(ConjTranspose(b), ConjTranspose(a))
		return MaxAbsDiff(lhs, rhs) < 1e-10
	}
	cfg := &quick.Config{MaxCount: 50, Rand: nil}
	_ = src
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNormHelpers(t *testing.T) {
	x := []complex128{3, 4i}
	if Norm2(x) != 25 {
		t.Fatalf("Norm2 = %g", Norm2(x))
	}
	if Norm(x) != 5 {
		t.Fatalf("Norm = %g", Norm(x))
	}
}

// GramUpper's entries are Gram's upper triangle, bit for bit, real and
// imaginary parts alike, and it adds nothing when asked for the real part
// alone — the BPSK compile's call; QPSK and 16-QAM ask for both. The shapes
// cover the row blocks' tails and a real-valued channel, whose imaginary
// parts are exact zeros.
func TestGramUpperMatchesGramBitForBit(t *testing.T) {
	src := rng.New(42)
	for _, shape := range [][3]int{{1, 1}, {3, 5}, {8, 8}, {12, 7}, {16, 16}, {48, 48}, {48, 48, 1}, {9, 6, 1}} {
		a := randMat(src, shape[0], shape[1])
		if shape[2] == 1 {
			for i, v := range a.Data {
				a.Data[i] = complex(real(v), 0)
			}
		}
		n, want := a.Cols, Gram(a)
		re, im := make([]float64, n*n), make([]float64, n*n)
		GramUpper(re, im, a)
		reOnly := make([]float64, n*n)
		GramUpper(reOnly, nil, a)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				k := i*n + j
				if j < i {
					if re[k] != 0 || im[k] != 0 {
						t.Fatalf("%d×%d: wrote below the diagonal at (%d,%d)", shape[0], shape[1], i, j)
					}
					continue
				}
				w := want.Data[k]
				if math.Float64bits(re[k]) != math.Float64bits(real(w)) || math.Float64bits(im[k]) != math.Float64bits(imag(w)) ||
					math.Float64bits(reOnly[k]) != math.Float64bits(real(w)) {
					t.Fatalf("%d×%d: entry (%d,%d) is %v%+vi (real only %v), Gram gives %v", shape[0], shape[1], i, j, re[k], im[k], reOnly[k], w)
				}
			}
		}
	}
}

// BenchmarkGramUpper times the upper triangle of HᴴH at the serving
// benchmark's 48×48, both parts (QPSK, 16-QAM) and the real part alone
// (BPSK).
func BenchmarkGramUpper(b *testing.B) {
	a := randMat(rng.New(1), 48, 48)
	re, im := make([]float64, 48*48), make([]float64, 48*48)
	for _, c := range []struct {
		name string
		im   []float64
	}{{"real", nil}, {"complex", im}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clear(re)
				clear(c.im)
				GramUpper(re, c.im, a)
			}
		})
	}
}
