package reduction

import (
	"testing"

	"quamax/internal/channel"
	"quamax/internal/linalg"
	"quamax/internal/modulation"
	"quamax/internal/qubo"
	"quamax/internal/rng"
)

// isingEqualExact compares two Ising programs bit for bit: every field,
// every coupling, and the offset must be float64-identical, not merely
// close. This is the contract the compiled decode path relies on to be
// indistinguishable from the recompiling one.
func isingEqualExact(t *testing.T, label string, got, want *qubo.Ising) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: size %d, want %d", label, got.N, want.N)
	}
	for i := 0; i < want.N; i++ {
		if got.H[i] != want.H[i] {
			t.Fatalf("%s: H[%d] = %v, want %v (not bit-identical)", label, i, got.H[i], want.H[i])
		}
	}
	for i := 0; i < want.N; i++ {
		for j := i + 1; j < want.N; j++ {
			if got.GetJ(i, j) != want.GetJ(i, j) {
				t.Fatalf("%s: J[%d,%d] = %v, want %v (not bit-identical)",
					label, i, j, got.GetJ(i, j), want.GetJ(i, j))
			}
		}
	}
	if got.Offset != want.Offset {
		t.Fatalf("%s: offset %v, want %v (not bit-identical)", label, got.Offset, want.Offset)
	}
}

// The compile/execute split must reproduce the one-shot reduction EXACTLY:
// compiling a channel once and filling biases per symbol yields, for every
// modulation, user count and received vector, the same Ising program —
// bit-identical fields, couplings and offset — as recompiling from scratch;
// so does BiasesInto into one Ising reused across channels and symbols.
func TestCompiledBiasesMatchReduceToIsing(t *testing.T) {
	src := rng.New(77)
	var reused qubo.Ising
	for _, mod := range modulation.All() {
		for _, nt := range []int{2, 4, 8} {
			h, _, _ := randInstance(src, mod, nt, nt, 0.3)
			cp := CompileChannel(mod, h)
			n := NumVariables(mod, nt)
			if cp.N != n {
				t.Fatalf("%v nt=%d: compiled N=%d, want %d", mod, nt, cp.N, n)
			}
			// Many symbols through one compiled channel: fresh y per symbol,
			// including noise-free and noisy draws.
			for sym := 0; sym < 5; sym++ {
				bits := src.Bits(nt * mod.BitsPerSymbol())
				y := linalg.MulVec(h, mod.MapGrayVector(bits))
				if sym%2 == 1 {
					y = channel.AddAWGN(src, y, 0.5)
				}
				got := cp.Biases(y)
				want := ReduceToIsing(mod, h, y)
				isingEqualExact(t, mod.String(), got, want)
				cp.BiasesInto(&reused, y)
				isingEqualExact(t, mod.String()+" reused", &reused, want)
			}
		}
	}
}

// A compiled program's couplings must be shared, not copied, across the
// Ising programs it produces (that sharing is the amortization), while the
// fields of different symbols stay independent.
func TestCompiledBiasesShareCouplings(t *testing.T) {
	src := rng.New(78)
	h, y1, _ := randInstance(src, modulation.QPSK, 3, 3, 0.2)
	_, y2, _ := randInstance(src, modulation.QPSK, 3, 3, 0.2)
	cp := CompileChannel(modulation.QPSK, h)
	p1 := cp.Biases(y1)
	p2 := cp.Biases(y2)
	if &p1.J[0] != &p2.J[0] {
		t.Fatal("Biases copied the coupling storage; expected sharing")
	}
	if &p1.H[0] == &p2.H[0] {
		t.Fatal("Biases shared the field storage; expected fresh fields per symbol")
	}
	diff := false
	for i := range p1.H {
		if p1.H[i] != p2.H[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("distinct received vectors produced identical fields")
	}
}
