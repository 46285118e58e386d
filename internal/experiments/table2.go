package experiments

import (
	"fmt"

	"quamax/internal/chimera"
	"quamax/internal/embedding"
	"quamax/internal/modulation"
	"quamax/internal/reduction"
)

// Table2 reproduces the qubit-footprint table (paper Table 2): logical and
// physical qubit counts for Nt×Nt systems across modulations, with
// feasibility against the 2,031-working-qubit, C16 DW2Q. A configuration is
// feasible when its clique fits the 16-cell grid (⌈N/4⌉ ≤ 16) and its
// footprint fits the working qubits — the paper's bold font marks the
// complement.
func Table2() (*Table, error) {
	configs := []int{10, 20, 40, 60}
	mods := []modulation.Modulation{modulation.BPSK, modulation.QPSK, modulation.QAM16, modulation.QAM64}

	t := &Table{
		Title:   "Table 2: logical (physical) qubits per configuration",
		Columns: []Column{col("config", "%[1]dx%[1]d")},
		Notes: []string{
			"INFEASIBLE marks configurations exceeding the DW2Q (2,031 working qubits, C16 grid) — the paper's bold entries",
		},
	}
	for _, m := range mods {
		t.Columns = append(t.Columns, col(m.String(), "%v"))
	}
	for _, nt := range configs {
		row := []any{nt}
		for _, m := range mods {
			n := reduction.NumVariables(m, nt)
			phys := embedding.PhysicalQubits(n)
			row = append(row, footprint{
				logical: n, physical: phys,
				feasible: (n+3)/4 <= chimera.DW2QGridSize && phys <= chimera.DW2QWorkingQubits,
			})
		}
		t.AddRow(row...)
	}
	return t, nil
}

// footprint is one Table 2 cell: "logical (physical)", marked when it does
// not fit the chip.
type footprint struct {
	logical, physical int
	feasible          bool
}

func (f footprint) String() string {
	if f.feasible {
		return fmt.Sprintf("%d (%d)", f.logical, f.physical)
	}
	return fmt.Sprintf("%d (%d) INFEASIBLE", f.logical, f.physical)
}
