// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). An experiment is one file — a Config with two presets,
// Quick (bench scale, minutes of compute for the whole set) and Full (closer
// to the paper's statistics), and a function from the Env and a Config to a
// Table — plus one line of Registry, which is what cmd/quamax, the root
// BenchmarkExperiment loop, the golden test and tools/docgate iterate. The
// output is a Table — the same rows/series the paper plots — holding typed
// values under formatting columns, renderable as aligned text or CSV.
//
// The paper shapes that hold on this tree are asserted on the tables' numbers
// by shape_test.go; the ones that do not are recorded in docs/EXPERIMENTS.md,
// "Interpreting deviations from the paper".
package experiments

import (
	"fmt"

	"quamax/internal/anneal"
	"quamax/internal/chimera"
	"quamax/internal/core"
	"quamax/internal/metrics"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/rng"
)

// Env bundles the shared experimental apparatus: the chip model and the
// calibrated machine. One Env is reused across experiments so embeddings and
// packings are computed once.
type Env struct {
	Graph   *chimera.Graph
	Machine *anneal.Machine
	// TracePath, when set, is the QMTR trace file Fig. 15 replays; empty
	// synthesizes the Argos-like dataset (see internal/trace).
	TracePath string

	decoders map[string]*core.Decoder
}

// NewEnv builds the default apparatus (DW2Q chip, calibrated machine).
func NewEnv() *Env {
	return &Env{
		Graph:    chimera.DW2Q(),
		Machine:  anneal.NewMachine(),
		decoders: make(map[string]*core.Decoder),
	}
}

// decoder returns a cached Decoder for a parameter combination.
func (e *Env) decoder(jf float64, improved bool, params anneal.Params, amortize bool) (*core.Decoder, error) {
	key := fmt.Sprintf("%g|%v|%v|%v", jf, improved, params, amortize)
	if d, ok := e.decoders[key]; ok {
		return d, nil
	}
	d, err := core.New(core.Options{
		Graph:            e.Graph,
		Machine:          e.Machine,
		JF:               jf,
		ImprovedRange:    improved,
		Params:           params,
		AmortizeParallel: amortize,
	})
	if err != nil {
		return nil, err
	}
	e.decoders[key] = d
	return d, nil
}

// FixParams is the paper's fixed operating point (§5.3.1–5.3.2): improved
// dynamic range, Ta = 1 µs with a 1 µs pause, |J_F| = 4.
type FixParams struct {
	JF       float64
	Improved bool
	Params   anneal.Params
}

// DefaultFix returns the Fix strategy settings for the BPSK/QPSK classes.
func DefaultFix(numAnneals int) FixParams {
	return FixParams{
		JF:       4,
		Improved: true,
		Params: anneal.Params{
			AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35,
			NumAnneals: numAnneals,
		},
	}
}

// ClassFix returns the per-problem-class fixed operating point. The paper's
// Fix strategy selects "the parameters which optimize medians across a
// sample of instances belonging to the same problem class" (§5.3.2) — in
// particular 16-QAM's 8× coefficient spread wants much stronger chains
// before the hardware rescale stops squeezing them (Fig. 5's size/class
// dependence; measured for this simulator in quamax_test.go's probe).
func ClassFix(mod modulation.Modulation, numAnneals int) FixParams {
	fp := DefaultFix(numAnneals)
	switch mod {
	case modulation.QAM16:
		fp.JF = 12
	case modulation.QAM64:
		fp.JF = 16
	}
	return fp
}

// decodeDist runs one instance under one parameter combination and returns
// its solution distribution plus the per-anneal wall time and Pf.
func (e *Env) decodeDist(in *mimo.Instance, fp FixParams, amortize bool, src *rng.Source) (*metrics.Distribution, float64, float64, error) {
	d, err := e.decoder(fp.JF, fp.Improved, fp.Params, amortize)
	if err != nil {
		return nil, 0, 0, err
	}
	out, err := d.Decode(core.Request{Mod: in.Mod, H: in.H, Y: in.Y, Truth: in}, core.Budget{}, src)
	if err != nil {
		return nil, 0, 0, err
	}
	return out.Distribution, out.WallMicrosPerAnneal, out.Pf, nil
}

// OptGrid is the per-instance oracle's parameter grid (§5.3.2's Opt bound):
// it re-runs the instance for every combination and keeps the best result
// under the experiment's figure of merit.
type OptGrid struct {
	JFs            []float64
	PausePositions []float64
}

// DefaultOptGrid returns the full-scale Opt oracle grid; it spans the chain
// strengths every modulation class needs (16-QAM optima sit near 12).
func DefaultOptGrid() OptGrid {
	return OptGrid{
		JFs:            []float64{2, 4, 6, 8, 12, 16},
		PausePositions: []float64{0.25, 0.35, 0.45},
	}
}

// QuickOptGrid is the bench-scale Opt oracle grid.
func QuickOptGrid() OptGrid {
	return OptGrid{JFs: []float64{2, 4, 8, 12}, PausePositions: []float64{0.35}}
}
