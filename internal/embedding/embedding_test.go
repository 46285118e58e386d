package embedding

import (
	"math"
	"reflect"
	"testing"

	"quamax/internal/chimera"
	"quamax/internal/qubo"
	"quamax/internal/rng"
)

func randLogical(src *rng.Source, n int) *qubo.Ising {
	p := qubo.NewIsing(n)
	for i := range p.H {
		p.H[i] = src.Gauss(0, 0.5)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p.SetJ(i, j, src.Gauss(0, 0.5))
		}
	}
	return p
}

func TestChainLengthAndFootprint(t *testing.T) {
	// Paper Table 2 physical-qubit entries (rounded in print, exact here).
	cases := []struct{ n, chain, phys int }{
		{10, 4, 40},    // 10×10 BPSK → 10(⌈10/4⌉+1) = 40
		{20, 6, 120},   // 20 logical → 120
		{40, 11, 440},  // 40 logical → 440
		{60, 16, 960},  // 60 logical → ~1K in the paper
		{80, 21, 1680}, // 80 logical → ~2K
		{120, 31, 3720},
		{160, 41, 6560}, // ~7K
		{240, 61, 14640},
		{360, 91, 32760}, // ~33K
	}
	for _, c := range cases {
		if got := ChainLength(c.n); got != c.chain {
			t.Errorf("ChainLength(%d) = %d, want %d", c.n, got, c.chain)
		}
		if got := PhysicalQubits(c.n); got != c.phys {
			t.Errorf("PhysicalQubits(%d) = %d, want %d", c.n, got, c.phys)
		}
	}
}

func TestEmbedStructure(t *testing.T) {
	g := chimera.New(8)
	for _, n := range []int{1, 3, 4, 5, 12, 17, 32} {
		e, err := Embed(g, n)
		if err != nil {
			t.Fatalf("Embed(%d): %v", n, err)
		}
		if len(e.Chains) != n {
			t.Fatalf("n=%d: %d chains", n, len(e.Chains))
		}
		want := ChainLength(n)
		used := make(map[int]bool)
		for i, chain := range e.Chains {
			if len(chain) != want {
				t.Fatalf("n=%d chain %d: length %d, want %d", n, i, len(chain), want)
			}
			for k, q := range chain {
				if used[q] {
					t.Fatalf("n=%d: qubit %d reused", n, q)
				}
				used[q] = true
				if k > 0 && !g.HasEdge(chain[k-1], chain[k]) {
					t.Fatalf("n=%d chain %d: gap at position %d", n, i, k)
				}
			}
		}
		if e.NumPhysical() != PhysicalQubits(n) {
			t.Fatalf("n=%d: NumPhysical %d, want %d", n, e.NumPhysical(), PhysicalQubits(n))
		}
		// Every logical pair has a coupler; same-cell pairs have two.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges := e.couplerEdges(i, j)
				if len(edges) == 0 {
					t.Fatalf("n=%d: pair (%d,%d) has no coupler", n, i, j)
				}
				if i/4 == j/4 && len(edges) != 2 {
					t.Fatalf("n=%d: same-cell pair (%d,%d) has %d edges, want 2", n, i, j, len(edges))
				}
				if i/4 != j/4 && len(edges) != 1 {
					t.Fatalf("n=%d: cross-cell pair (%d,%d) has %d edges, want 1", n, i, j, len(edges))
				}
			}
		}
	}
}

func TestEmbedTooLarge(t *testing.T) {
	g := chimera.New(2)
	if _, err := Embed(g, 12); err == nil { // needs M=3 > 2
		t.Fatal("expected failure for oversized problem")
	}
}

func TestEmbedAvoidsDefects(t *testing.T) {
	full := chimera.New(4)
	// Kill every qubit of cell (0,0) so the origin placement fails.
	var dead []int
	for _, s := range []chimera.Side{chimera.Vertical, chimera.Horizontal} {
		for k := 0; k < 4; k++ {
			dead = append(dead, full.QubitID(0, 0, s, k))
		}
	}
	g := chimera.NewWithDefects(4, dead, nil)
	e, err := Embed(g, 8) // M=2 triangle
	if err != nil {
		t.Fatalf("Embed should relocate around defects: %v", err)
	}
	for _, chain := range e.Chains {
		for _, q := range chain {
			if !g.HasQubit(q) {
				t.Fatal("embedding used a dead qubit")
			}
		}
	}
	if e.RowOff == 0 && e.ColOff == 0 && !e.Flipped {
		t.Fatal("placement should have moved off the defective origin")
	}
}

// Ground-state preservation: the exact ground state of the embedded physical
// problem must unembed (with zero broken chains) to the exact logical ground
// state, and the energies must satisfy
// E_phys = E_logical/|J_F| − ChainEdges·|chainCoupler|.
func TestEmbeddedGroundStatePreserved(t *testing.T) {
	src := rng.New(61)
	g := chimera.New(4)
	for _, n := range []int{2, 4, 6} {
		for _, improved := range []bool{false, true} {
			p := randLogical(src, n)
			e, err := Embed(g, n)
			if err != nil {
				t.Fatal(err)
			}
			jf := 3.0 + float64(n) // strong chains: exact preservation
			ep, err := e.EmbedIsing(p, jf, improved)
			if err != nil {
				t.Fatal(err)
			}
			physGS, physE := qubo.BruteForceIsing(ep.Phys.ToDense())
			logical, broken := e.Unembed(physGS, src)
			if broken != 0 {
				t.Fatalf("n=%d improved=%v: ground state has %d broken chains", n, improved, broken)
			}
			wantGS, wantE := qubo.BruteForceIsing(p)
			if got := p.Energy(logical); math.Abs(got-wantE) > 1e-9 {
				t.Fatalf("n=%d: unembedded energy %g, want %g", n, got, wantE)
			}
			chainMag := 1.0
			if improved {
				chainMag = 2.0
			}
			wantPhysE := wantE/jf - float64(ep.ChainEdges)*chainMag
			if math.Abs(physE-wantPhysE) > 1e-9 {
				t.Fatalf("n=%d improved=%v: physical energy %g, want %g", n, improved, physE, wantPhysE)
			}
			// Spins must match up to a possible global flip only if the
			// problem has fields (it does), so they must match exactly.
			for i := range wantGS {
				if logical[i] != wantGS[i] {
					t.Fatalf("n=%d: unembedded ground state differs at %d", n, i)
				}
			}
		}
	}
}

func TestUnembedMajorityAndTies(t *testing.T) {
	g := chimera.New(4)
	e, err := Embed(g, 5) // chain length 3: clean majority possible
	if err != nil {
		t.Fatal(err)
	}
	phys := make([]int8, e.NumPhysical())
	for i := range phys {
		phys[i] = 1
	}
	// Corrupt one qubit of chain 0: majority still +1, one broken chain.
	phys[0] = -1
	logical, broken := e.Unembed(phys, rng.New(1))
	if broken != 1 {
		t.Fatalf("broken = %d, want 1", broken)
	}
	for i, s := range logical {
		if s != 1 {
			t.Fatalf("logical %d = %d, want +1 by majority", i, s)
		}
	}

	// Tie handling: even-length chains split 50/50 must randomize.
	e4, err := Embed(g, 4) // chain length 2
	if err != nil {
		t.Fatal(err)
	}
	tie := make([]int8, e4.NumPhysical())
	for i := range tie {
		if i%2 == 0 {
			tie[i] = 1
		} else {
			tie[i] = -1
		}
	}
	src := rng.New(2)
	sawPlus, sawMinus := false, false
	for trial := 0; trial < 64; trial++ {
		lg, _ := e4.Unembed(tie, src)
		for _, s := range lg {
			if s == 1 {
				sawPlus = true
			} else {
				sawMinus = true
			}
		}
	}
	if !sawPlus || !sawMinus {
		t.Fatal("tie votes should randomize between +1 and −1")
	}
}

func TestEmbedIsingValidation(t *testing.T) {
	g := chimera.New(4)
	e, _ := Embed(g, 4)
	if _, err := e.EmbedIsing(qubo.NewIsing(5), 1, false); err == nil {
		t.Fatal("size mismatch should error")
	}
	if _, err := e.EmbedIsing(qubo.NewIsing(4), 0, false); err == nil {
		t.Fatal("non-positive |J_F| should error")
	}
}

func TestFieldsSpreadAcrossChains(t *testing.T) {
	g := chimera.New(4)
	e, _ := Embed(g, 4)
	p := qubo.NewIsing(4)
	p.H[2] = 6.0
	ep, err := e.EmbedIsing(p, 2.0, false)
	if err != nil {
		t.Fatal(err)
	}
	// Chain length 2, |J_F| = 2 → each qubit of chain 2 gets 6/(2·2) = 1.5;
	// all other fields zero.
	var sum float64
	for i, h := range ep.Phys.H {
		sum += h
		q := e.PhysicalID(i)
		inChain2 := false
		for _, c := range e.Chains[2] {
			if c == q {
				inChain2 = true
			}
		}
		if inChain2 && math.Abs(h-1.5) > 1e-12 {
			t.Fatalf("chain-2 qubit field %g, want 1.5", h)
		}
		if !inChain2 && h != 0 {
			t.Fatalf("unexpected field %g on qubit %d", h, i)
		}
	}
	if math.Abs(sum-3.0) > 1e-12 { // f_i/|J_F| total
		t.Fatalf("total field %g, want 3", sum)
	}
}

func TestParallelFactorAndPacking(t *testing.T) {
	g := chimera.DW2Q()
	// Paper §4: a 16-logical-qubit problem (80 physical qubits) runs "more
	// than 20 times in parallel" on the DW2Q.
	if pf := ParallelFactorFormula(g, 16); pf < 20 {
		t.Fatalf("formula Pf = %g, want > 20", pf)
	}
	slots := PackSlots(g, 16)
	if len(slots) < 20 {
		t.Fatalf("packed %d slots, want ≥ 20", len(slots))
	}
	// Slots must be pairwise disjoint.
	used := make(map[int]int)
	for si, e := range slots {
		for _, chain := range e.Chains {
			for _, q := range chain {
				if prev, ok := used[q]; ok {
					t.Fatalf("qubit %d used by slots %d and %d", q, prev, si)
				}
				used[q] = si
			}
		}
	}
	// Large problems still pack at least one slot.
	if len(PackSlots(g, 60)) < 1 {
		t.Fatal("60-spin problem should fit at least once")
	}
}

func TestPackSlotsOnDefectFreeC16(t *testing.T) {
	g := chimera.New(16)
	// M=4 triangles: 4 row-blocks × 3 column-blocks × 2 + one extra column
	// block of 4 cells per row block (16 = 3·5+1 leaves 1 cell: no extra).
	slots := PackSlots(g, 16)
	if len(slots) != 24 {
		t.Fatalf("packed %d slots on defect-free C16, want 24", len(slots))
	}
}

func TestEmbedOnDW2QRealSizes(t *testing.T) {
	g := chimera.DW2Q()
	// The paper's headline sizes must embed on the defective chip:
	// 48-user BPSK (N=48), 18-user QPSK (N=36), 60-user BPSK (N=60).
	for _, n := range []int{36, 48, 60} {
		if _, err := Embed(g, n); err != nil {
			t.Fatalf("Embed(%d) on DW2Q: %v", n, err)
		}
	}
}

func TestPhysicalInit(t *testing.T) {
	g := chimera.New(4)
	e, err := Embed(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	logical := []int8{1, -1, 1, -1, 1, -1}
	phys := e.PhysicalInit(logical)
	if len(phys) != e.NumPhysical() {
		t.Fatalf("physical init length %d", len(phys))
	}
	// Unembedding the init must reproduce the logical state with no breaks.
	back, broken := e.Unembed(phys, rng.New(1))
	if broken != 0 {
		t.Fatalf("%d broken chains in a replicated init", broken)
	}
	for i := range logical {
		if back[i] != logical[i] {
			t.Fatalf("round trip differs at %d", i)
		}
	}
}

func TestPegasusProjection(t *testing.T) {
	// Paper §8: chains shrink to N/12+1.
	if got := PegasusChainLength(60); got != 6 {
		t.Fatalf("PegasusChainLength(60) = %d, want 6", got)
	}
	if got := PegasusPhysicalQubits(60); got != 360 {
		t.Fatalf("PegasusPhysicalQubits(60) = %d, want 360", got)
	}
	// Pegasus chains are never longer than Chimera chains.
	for _, n := range []int{1, 12, 48, 120, 350} {
		if PegasusChainLength(n) > ChainLength(n) {
			t.Fatalf("Pegasus chain longer than Chimera at n=%d", n)
		}
	}
}

// scanEmbedIsing is Appendix B compiled from scratch: every coupler found by
// scanning Graph.HasEdge over the two chains' qubits, every index resolved
// through a graph-ID map built here — the reference the placement's dense
// coupler table must reproduce edge for edge.
func scanEmbedIsing(e *Embedding, p *qubo.Ising, jf float64, improved bool) (*qubo.Sparse, int) {
	index := make(map[int]int, e.NumPhysical())
	for i := 0; i < e.NumPhysical(); i++ {
		index[e.PhysicalID(i)] = i
	}
	phys := qubo.NewSparse(e.NumPhysical())
	chainCoupler, chainEdges := -1.0, 0
	if improved {
		chainCoupler = -2
	}
	for i, chain := range e.Chains {
		f := p.H[i] / (jf * float64(ChainLength(e.N)))
		for k, q := range chain {
			phys.H[index[q]] += f
			if k > 0 {
				phys.AddEdge(index[chain[k-1]], index[q], chainCoupler)
				chainEdges++
			}
		}
	}
	for i := 0; i < e.N; i++ {
		for j := i + 1; j < e.N; j++ {
			if p.GetJ(i, j) == 0 {
				continue
			}
			var edges [][2]int
			for _, a := range e.Chains[i] {
				for _, b := range e.Chains[j] {
					if e.Graph.HasEdge(a, b) {
						edges = append(edges, [2]int{index[a], index[b]})
					}
				}
			}
			w := p.GetJ(i, j) / (jf * float64(len(edges)))
			for _, ed := range edges {
				phys.AddEdge(ed[0], ed[1], w)
			}
		}
	}
	return phys, chainEdges
}

// The coupler edges are a property of the placement: EmbedIsing reads them
// from the table embedTriangle kept, and must emit exactly the program a
// per-call scan of the hardware graph does — same edges, same order, same
// weights — on the primary placement and on every packed slot, without
// scanning (or allocating per logical pair) again.
func TestEmbedIsingMatchesHardwareScan(t *testing.T) {
	g := chimera.DW2Q()
	src := rng.New(17)
	for _, n := range []int{16, 48, 60} {
		primary, err := Embed(g, n)
		if err != nil {
			t.Fatal(err)
		}
		placements := append([]*Embedding{primary}, PackSlots(g, n)...)
		if len(placements) < 2 {
			t.Fatalf("n=%d: no packed slot to check", n)
		}
		p := randLogical(src, n)
		for s, e := range placements {
			for _, improved := range []bool{false, true} {
				ep, err := e.EmbedIsing(p, 3.5, improved)
				if err != nil {
					t.Fatal(err)
				}
				want, chainEdges := scanEmbedIsing(e, p, 3.5, improved)
				if !reflect.DeepEqual(ep.Phys, want) || ep.ChainEdges != chainEdges {
					t.Fatalf("n=%d placement %d improved=%t: EmbedIsing diverges from the hardware scan", n, s, improved)
				}
			}
		}
		if allocs := testing.AllocsPerRun(5, func() { primary.EmbedIsing(p, 3.5, true) }); allocs > 8 {
			t.Errorf("n=%d: EmbedIsing allocates %v times per call, want ≤ 8 (no per-pair coupler scan)", n, allocs)
		}
	}
}

// SameLayout is what lets one compiled program serve every slot that lays its
// chains and couplers out alike: on the DW2Q every slot of a packing and the
// primary placement do (a slot with a defect is dropped, not patched), and
// EmbedIsing then compiles one logical program into the same physical program
// on each. A placement that lost one of two couplers between a pair of chains
// is still valid — and a different layout.
func TestSameLayout(t *testing.T) {
	g := chimera.DW2Q()
	primary, err := Embed(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	logical := randLogical(rng.New(9), 16)
	want, err := primary.EmbedIsing(logical, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, slot := range PackSlots(g, 16) {
		if !slot.SameLayout(primary) || !primary.SameLayout(slot) {
			t.Fatalf("slot %d of the DW2Q packing lays out differently from the primary placement", i)
		}
		got, err := slot.EmbedIsing(logical, 4, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Phys, want.Phys) {
			t.Fatalf("slot %d: same layout, different physical program", i)
		}
	}
	if other, _ := Embed(g, 12); other.SameLayout(primary) {
		t.Fatal("a 12-spin placement claims a 16-spin layout")
	}

	clean := chimera.New(4)
	e, err := Embed(clean, 8)
	if err != nil {
		t.Fatal(err)
	}
	var dead [][2]int // the couplers of the first pair of chains that meets on two
	for i := 0; i < e.N && len(dead) < 2; i++ {
		for j := i + 1; j < e.N && len(dead) < 2; j++ {
			dead = dead[:0]
			for _, a := range e.Chains[i] {
				for _, b := range e.Chains[j] {
					if clean.HasEdge(a, b) {
						dead = append(dead, [2]int{a, b})
					}
				}
			}
		}
	}
	if len(dead) < 2 {
		t.Fatal("no pair of chains meets on two couplers: nothing to lose one of")
	}
	patched, err := Embed(chimera.NewWithDefects(4, nil, dead[:1]), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(patched.Chains, e.Chains) {
		t.Fatal("the placement moved: the lost coupler was not tolerated in place")
	}
	if patched.SameLayout(e) {
		t.Fatal("a placement that lost a coupler claims the defect-free layout")
	}
}

// couplerEdges returns the working physical edges joining chains i < j
// (δ_ij of Eq. 12) in dense physical indices.
func (e *Embedding) couplerEdges(i, j int) [][2]int32 {
	k := i*e.N - i*(i+1)/2 + (j - i - 1)
	return e.couplers[e.pairStart[k]:e.pairStart[k+1]]
}
