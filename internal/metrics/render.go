package metrics

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"
)

// fmtMicros renders a microsecond quantity as a rounded duration.
func fmtMicros(us float64) string {
	if us <= 0 {
		return "-"
	}
	d := time.Duration(us * float64(time.Microsecond))
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	}
	return d.Round(100 * time.Nanosecond).String()
}

// fmtMicroUSD renders a micro-USD spend at the most readable scale.
func fmtMicroUSD(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("$%.2f", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fm$", v/1e3)
	}
	return fmt.Sprintf("%.1fµ$", v)
}

// fmtMilliJ renders a millijoule energy total at the most readable scale.
func fmtMilliJ(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fkJ", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fJ", v/1e3)
	}
	return fmt.Sprintf("%.1fmJ", v)
}

// units maps the unit a series name ends in (before any _total) to its
// formatter; a name with no such suffix prints as a count or a plain number.
var units = []struct {
	suffix string
	format func(float64) string
}{
	{"_micros", fmtMicros},
	{"_microusd", fmtMicroUSD},
	{"_millij", fmtMilliJ},
	{"_seconds", func(v float64) string { return fmtMicros(v * 1e6) }},
}

// formatValue renders one value of the series called name.
func formatValue(name string, v float64) string {
	base := strings.TrimSuffix(name, "_total")
	for _, u := range units {
		if strings.HasSuffix(base, u.suffix) {
			return u.format(v)
		}
	}
	if base != name {
		return strconv.FormatFloat(v, 'f', -1, 64) // a count
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// pivots are the label keys Render draws a table for, in placement order: a
// sample goes to the table of the first key it carries (rows are that label's
// values) and samples carrying none list one per row under the header.
var pivots = []string{"backend", "shard", "stage", "class"}

// table is one pivot: rows × columns of samples. Samples that land on the same
// cell (they differ only in another pivot label, e.g. one backend name on two
// shards) are summed.
type table struct {
	rows, cols []string
	cells      map[[2]string]Sample
	proto      map[string]Sample // per column: the first sample seen (name and kind)
}

func (t *table) add(row, col string, s Sample) {
	if t.cells == nil {
		t.cells, t.proto = map[[2]string]Sample{}, map[string]Sample{}
	}
	if !slices.Contains(t.rows, row) {
		t.rows = append(t.rows, row)
	}
	if _, ok := t.proto[col]; !ok {
		t.cols, t.proto[col] = append(t.cols, col), s
	}
	if c, ok := t.cells[[2]string{row, col}]; ok {
		s.Value, s.Hist = s.Value+c.Value, s.Hist.Merge(c.Hist)
	}
	t.cells[[2]string{row, col}] = s
}

// cell renders one sample: one string, or count/p50/p95/p99/max for a
// histogram column. ok=false renders the placeholder of a missing cell.
func cell(hist bool, s Sample, ok bool) []string {
	switch {
	case !hist && !ok:
		return []string{"-"}
	case !hist:
		return []string{formatValue(s.Name, s.Value)}
	case !ok:
		return []string{"-", "-", "-", "-", "-"}
	case s.Hist.Count == 0:
		return []string{"0", "-", "-", "-", "-"}
	}
	out := []string{strconv.FormatUint(s.Hist.Count, 10)}
	for _, v := range []float64{s.Hist.Quantile(50), s.Hist.Quantile(95), s.Hist.Quantile(99), s.Hist.Max} {
		out = append(out, formatValue(s.Name, v))
	}
	return out
}

// TableWidth is where a table wraps: its remaining columns continue in a second
// block under the same row labels.
const TableWidth = 110

// render prints the table under the header cell head. With totals, a table of
// several rows closes with a row summing its counter columns (gauges and
// histograms do not add up and show "-").
func (t *table) render(w io.Writer, head string, totals bool) {
	if len(t.rows) == 0 {
		return
	}
	slices.Sort(t.rows)
	grid := [][]string{{head}}
	for _, row := range t.rows {
		grid = append(grid, []string{row})
	}
	total, summed := []string{"total"}, false
	for _, col := range t.cols {
		proto := t.proto[col]
		hist := proto.Kind == KindHistogram
		if hist {
			grid[0] = append(grid[0], strings.TrimPrefix(col+" n", " "), "p50", "p95", "p99", "max")
		} else {
			grid[0] = append(grid[0], col)
		}
		sum := 0.0
		for i, row := range t.rows {
			s, ok := t.cells[[2]string{row, col}]
			grid[i+1] = append(grid[i+1], cell(hist, s, ok)...)
			sum += s.Value
		}
		if proto.Kind == KindCounter {
			total, summed = append(total, formatValue(proto.Name, sum)), true
		} else {
			total = append(total, cell(hist, proto, false)...)
		}
	}
	if totals && summed && len(t.rows) > 1 {
		grid = append(grid, total)
	}
	widths := make([]int, len(grid[0]))
	for _, line := range grid {
		for i, c := range line {
			widths[i] = max(widths[i], len([]rune(c)))
		}
	}
	for from := 1; from < len(widths); {
		to, width := from, widths[0]
		for to < len(widths) && (to == from || width+2+widths[to] <= TableWidth) {
			width += 2 + widths[to]
			to++
		}
		for _, line := range grid {
			fmt.Fprintf(w, "  %-*s", widths[0], line[0])
			for i := from; i < to; i++ {
				fmt.Fprintf(w, "  %*s", widths[i], line[i])
			}
			fmt.Fprintln(w)
		}
		from = to
	}
}

// Render writes one sample set as tables under a title line: the series
// without a pivot label first, then one table per pivot key. It is the one
// text form of every report — `quamax -top`, the serving binary's shutdown
// log and the examples all print through it.
func Render(w io.Writer, title string, samples []Sample) {
	fmt.Fprintf(w, "%s — %d series\n", title, len(samples))
	tables := make([]table, len(pivots)+1)
	for _, s := range samples {
		at, row := len(pivots), ""
		for i, key := range pivots {
			if v, ok := s.Label(key); ok {
				at, row = i, v
				break
			}
		}
		// The column is the series name without what the table already says
		// (the quamax_ prefix, the pivot key, the unit the value is formatted
		// in), qualified by the values of the labels that are not pivots.
		col := strings.TrimSuffix(strings.TrimPrefix(s.Name, "quamax_"), "_total")
		if at < len(pivots) {
			col = strings.TrimPrefix(col, pivots[at]+"_")
		}
		for _, u := range units {
			col = strings.TrimSuffix(col, u.suffix)
		}
		for _, l := range s.Labels {
			if !slices.Contains(pivots, l.Key) {
				col += "." + l.Value
			}
		}
		if at == len(pivots) {
			row, col = col, "value"
			if s.Kind == KindHistogram {
				col = ""
			}
		}
		tables[at].add(row, col, s)
	}
	tables[len(pivots)].render(w, "series", false)
	for i, key := range pivots {
		tables[i].render(w, key, true)
	}
}
