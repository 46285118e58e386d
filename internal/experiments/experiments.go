// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment has a Config with two presets: Quick
// (used by the root bench_test.go, minutes of compute) and Full (used by
// cmd/quamax, closer to the paper's statistics). The output is a Table —
// the same rows/series the paper plots — renderable as aligned text or CSV.
//
// The per-experiment index lives in cmd/quamax (quamax -exp all); measured-vs-paper
// comparisons live in the experiment doc comments and the bench harness.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"quamax/internal/anneal"
	"quamax/internal/chimera"
	"quamax/internal/core"
	"quamax/internal/metrics"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/rng"
)

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carry caveats (calibration, scale) into the rendered output.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders an aligned text table.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString("## " + t.Title + "\n")
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: " + n + "\n")
	}
	return b.String()
}

// CSV renders the table as comma-separated values (cells are escaped by
// replacing embedded commas; experiment cells never need full quoting).
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string { return strings.ReplaceAll(s, ",", ";") }
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = esc(c)
	}
	b.WriteString(strings.Join(cols, ",") + "\n")
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = esc(c)
		}
		b.WriteString(strings.Join(cells, ",") + "\n")
	}
	return b.String()
}

// fmtMicros formats a microsecond quantity the way the paper's axes do.
func fmtMicros(us float64) string {
	switch {
	case math.IsInf(us, 1):
		return "inf"
	case us >= 1e4:
		return fmt.Sprintf("%.1fms", us/1e3)
	default:
		return fmt.Sprintf("%.2fus", us)
	}
}

// fmtBER formats a bit error rate.
func fmtBER(ber float64) string {
	switch {
	case math.IsNaN(ber):
		return "nan"
	case ber == 0:
		return "0"
	case ber < 1e-3:
		return fmt.Sprintf("%.1e", ber)
	default:
		return fmt.Sprintf("%.4f", ber)
	}
}

// Env bundles the shared experimental apparatus: the chip model and the
// calibrated machine. One Env is reused across experiments so embeddings and
// packings are computed once.
type Env struct {
	Graph   *chimera.Graph
	Machine *anneal.Machine

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

// bestTTB evaluates the grid and returns the minimum TTB(target) across
// combinations (the Opt oracle), along with the distribution that achieved it.
func (e *Env) bestTTB(in *mimo.Instance, grid OptGrid, numAnneals int, target float64, amortize bool, src *rng.Source) (float64, *metrics.Distribution, error) {
	best := math.Inf(1)
	var bestDist *metrics.Distribution
	for _, jf := range grid.JFs {
		for _, sp := range grid.PausePositions {
			fp := FixParams{
				JF: jf, Improved: true,
				Params: anneal.Params{
					AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: sp,
					NumAnneals: numAnneals,
				},
			}
			dist, wall, pf, err := e.decodeDist(in, fp, amortize, src)
			if err != nil {
				return 0, nil, err
			}
			if ttb := dist.TTB(target, wall, pf); bestDist == nil || ttb < best {
				best = ttb
				bestDist = dist
			}
		}
	}
	return best, bestDist, nil
}
