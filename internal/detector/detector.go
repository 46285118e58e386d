// Package detector implements the classical MIMO detectors the paper
// compares against: the zero-forcing and MMSE linear filters that current
// large-MIMO designs use (§1, Fig. 14 baseline), exhaustive ML search, and a
// Schnorr–Euchner sphere decoder with visited-node accounting (§2.1,
// Table 1).
package detector

import (
	"errors"
	"fmt"
	"math"

	"quamax/internal/linalg"
	"quamax/internal/modulation"
)

// Result is a hard-decision detector output.
type Result struct {
	// Symbols are the detected constellation points, one per user.
	Symbols []complex128
	// Bits are the Gray-demapped data bits (BitsPerSymbol per user).
	Bits []byte
	// VisitedNodes counts sphere-decoder tree nodes whose partial metric was
	// evaluated (0 for other detectors) — the Table 1 complexity measure.
	VisitedNodes int
	// Metric is ‖y − H·Symbols‖² for the returned decision.
	Metric float64
	// Restarts counts the annealing restarts ClassicalSA ran — fewer than
	// configured when DecodeUntil's rule ended them — and is 0 for other
	// detectors.
	Restarts int
}

func finish(mod modulation.Modulation, h *linalg.Mat, y, symbols []complex128, visited int) Result {
	return Result{
		Symbols:      symbols,
		Bits:         mod.DemapGrayVector(symbols),
		VisitedNodes: visited,
		Metric:       linalg.Norm2(linalg.VecSub(y, linalg.MulVec(h, symbols))),
	}
}

// ZeroForcing inverts the channel with the left pseudo-inverse and slices
// per user: x̂ = (HᴴH)⁻¹Hᴴy. Fails on rank-deficient channels.
func ZeroForcing(mod modulation.Modulation, h *linalg.Mat, y []complex128) (Result, error) {
	pinv, err := linalg.PseudoInverse(h)
	if err != nil {
		return Result{}, fmt.Errorf("detector: zero-forcing: %w", err)
	}
	x := linalg.MulVec(pinv, y)
	symbols := make([]complex128, len(x))
	for i, v := range x {
		symbols[i] = mod.Slice(v)
	}
	return finish(mod, h, y, symbols, 0), nil
}

// MMSE applies the minimum mean-squared-error filter
// x̂ = (HᴴH + (σ²/Es)·I)⁻¹Hᴴy, where noiseVar is the per-antenna complex
// noise variance σ² and Es the average symbol energy. Unlike zero-forcing
// it remains defined for singular channels (σ² > 0 regularizes).
func MMSE(mod modulation.Modulation, h *linalg.Mat, y []complex128, noiseVar float64) (Result, error) {
	if noiseVar < 0 {
		return Result{}, errors.New("detector: negative noise variance")
	}
	g := linalg.Gram(h)
	reg := noiseVar / mod.AvgSymbolEnergy()
	for i := 0; i < g.Rows; i++ {
		g.Set(i, i, g.At(i, i)+complex(reg, 0))
	}
	gi, err := linalg.Inverse(g)
	if err != nil {
		return Result{}, fmt.Errorf("detector: MMSE: %w", err)
	}
	x := linalg.MulVec(linalg.Mul(gi, linalg.ConjTranspose(h)), y)
	symbols := make([]complex128, len(x))
	for i, v := range x {
		symbols[i] = mod.Slice(v)
	}
	return finish(mod, h, y, symbols, 0), nil
}

// MaxExhaustiveSearch bounds ExhaustiveML (|O|^Nt candidate vectors).
const MaxExhaustiveSearch = 1 << 22

// ExhaustiveML performs the full argmin of Eq. 1 by enumeration — the
// throughput-optimal reference for small problems.
func ExhaustiveML(mod modulation.Modulation, h *linalg.Mat, y []complex128) (Result, error) {
	nt := h.Cols
	points := mod.Constellation()
	total := 1.0
	for i := 0; i < nt; i++ {
		total *= float64(len(points))
		if total > MaxExhaustiveSearch {
			return Result{}, fmt.Errorf("detector: exhaustive search of |O|^%d candidates too large", nt)
		}
	}
	cur := make([]complex128, nt)
	best := make([]complex128, nt)
	bestMetric := math.Inf(1)
	var recurse func(level int)
	recurse = func(level int) {
		if level == nt {
			if m := linalg.Norm2(linalg.VecSub(y, linalg.MulVec(h, cur))); m < bestMetric {
				bestMetric = m
				copy(best, cur)
			}
			return
		}
		for _, p := range points {
			cur[level] = p
			recurse(level + 1)
		}
	}
	recurse(0)
	return finish(mod, h, y, best, 0), nil
}
