package experiments

import (
	"fmt"
	"math"
	"strings"
)

// Column is one table column: it owns its name and the format of its values,
// so a row holds values and nothing formats a number where it is measured.
type Column struct {
	Name string
	// HostTime marks values measured with the host's clock (time.Since) — the
	// only cells that differ between two runs at one seed.
	HostTime bool

	format func(v any) string
}

// col is a column rendered with a fmt verb: "%v" for labels, "%d" for
// counts, "%.1f", "%g", ... for float64 values.
func col(name, verb string) Column {
	return Column{Name: name, format: func(v any) string { return fmt.Sprintf(verb, v) }}
}

// colMicros is a column of microsecond float64 values (fmtMicros).
func colMicros(name string) Column {
	return Column{Name: name, format: func(v any) string { return fmtMicros(v.(float64)) }}
}

// colBER is a column of bit-error-rate float64 values (fmtBER).
func colBER(name string) Column {
	return Column{Name: name, format: func(v any) string { return fmtBER(v.(float64)) }}
}

// hostTime returns the column marked as host-clock-measured.
func (c Column) hostTime() Column {
	c.HostTime = true
	return c
}

// Table is an experiment result: typed values under formatting columns.
type Table struct {
	Title   string
	Columns []Column
	Rows    [][]any
	// Notes carry caveats (calibration, scale) into the rendered output.
	Notes []string
}

// AddRow appends one row of values, one per column.
func (t *Table) AddRow(values ...any) { t.Rows = append(t.Rows, values) }

// column returns the index of the first column with the given name; it
// panics on a name the table does not have (a bug in the caller).
func (t *Table) column(name string) int {
	for c, column := range t.Columns {
		if column.Name == name {
			return c
		}
	}
	panic("experiments: table " + t.Title + " has no column " + name)
}

// Floats returns the named column's values as numbers: float64 and int
// cells as themselves, anything else (labels) as NaN.
func (t *Table) Floats(name string) []float64 {
	c := t.column(name)
	out := make([]float64, len(t.Rows))
	for r, row := range t.Rows {
		switch v := row[c].(type) {
		case float64:
			out[r] = v
		case int:
			out[r] = float64(v)
		default:
			out[r] = math.NaN()
		}
	}
	return out
}

// cells renders the header and every row through the columns' formats.
func (t *Table) cells() [][]string {
	out := make([][]string, 1, 1+len(t.Rows))
	for _, c := range t.Columns {
		out[0] = append(out[0], c.Name)
	}
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = t.Columns[i].format(v)
		}
		out = append(out, cells)
	}
	return out
}

// String renders an aligned text table.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString("## " + t.Title + "\n")
	cells := t.cells()
	widths := make([]int, len(t.Columns))
	for _, row := range cells {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(row []string) {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(cells[0])
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range cells[1:] {
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
	for _, row := range t.cells() {
		for i, cell := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strings.ReplaceAll(cell, ",", ";"))
		}
		b.WriteByte('\n')
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
