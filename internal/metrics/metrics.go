// Package metrics renders experiment results the way the paper reports
// them: aligned tables for per-configuration numbers and series for
// figure-style sweeps.
package metrics

import (
	"fmt"
	"strings"
)

// Table is a titled grid with a header row.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are formatted with %v, floats with %.4g.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case float32:
			row[i] = fmt.Sprintf("%.4g", x)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no title).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Series is one line of a figure: named (x, y) points.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Figure is a set of series sharing axes, rendered as a table with one
// column per series.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewFigure creates an empty figure.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// NewSeries adds and returns a named series.
func (f *Figure) NewSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// String renders the figure as an aligned table: the x column then one
// column per series. Series may have disjoint x values; missing cells are
// blank.
func (f *Figure) String() string {
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	// Collect x values in first-seen order.
	var xs []float64
	seen := map[float64]int{}
	for _, s := range f.Series {
		for _, x := range s.X {
			if _, ok := seen[x]; !ok {
				seen[x] = len(xs)
				xs = append(xs, x)
			}
		}
	}
	t := NewTable(fmt.Sprintf("%s  (y: %s)", f.Title, f.YLabel), cols...)
	for _, x := range xs {
		row := make([]any, 1+len(f.Series))
		row[0] = trimFloat(x)
		for si, s := range f.Series {
			row[si+1] = ""
			for i, sx := range s.X {
				if sx == x {
					row[si+1] = trimFloat(s.Y[i])
					break
				}
			}
		}
		t.AddRow(row...)
	}
	return t.String()
}

func trimFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}

// Counters is an ordered list of named integer counters: insertion order is
// render order, so fault/recovery tables and determinism fingerprints come
// out byte-identical on every run (a Go map would not).
type Counters struct {
	names []string
	vals  []uint64
}

// Add appends (or accumulates into) the named counter.
func (c *Counters) Add(name string, v uint64) {
	for i, n := range c.names {
		if n == name {
			c.vals[i] += v
			return
		}
	}
	c.names = append(c.names, name)
	c.vals = append(c.vals, v)
}

// Len reports how many counters are held.
func (c *Counters) Len() int { return len(c.names) }

// String renders "name=value" pairs in insertion order, space-separated.
func (c *Counters) String() string {
	var b strings.Builder
	for i, n := range c.names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", n, c.vals[i])
	}
	return b.String()
}

// Bytes formats a byte count human-readably.
func Bytes(n float64) string {
	switch {
	case n >= 1<<40:
		return fmt.Sprintf("%.2fTiB", n/(1<<40))
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", n/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", n/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", n/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", n)
	}
}

// GBps formats a bytes/s rate in decimal GB/s as the paper does.
func GBps(bytesPerSec float64) string {
	return fmt.Sprintf("%.2fGB/s", bytesPerSec/1e9)
}
