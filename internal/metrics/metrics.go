// Package metrics renders experiment results the way the paper reports
// them: aligned tables for per-configuration numbers and series for
// figure-style sweeps. Cells stay typed until a table is rendered, so a
// result's numbers can be read back by name (Table.Values, Figure.Values).
package metrics

import (
	"fmt"
	"reflect"
	"strings"
)

// Table is a titled grid with a header row. Its values are named
// Key.label.column (see Values).
type Table struct {
	Key     string
	Title   string
	Columns []string
	rows    [][]any
}

// NewTable creates a table with the given key, title and column headers.
func NewTable(key, title string, columns ...string) *Table {
	return &Table{Key: key, Title: title, Columns: columns}
}

// AddRow appends a row of typed cells. The table keeps vals itself, so a
// caller spreading a slice (AddRow(row...)) must not reuse it. It panics if
// the row has more cells than the table has columns.
func (t *Table) AddRow(vals ...any) {
	if len(vals) > len(t.Columns) {
		panic(fmt.Sprintf("metrics: table %q: row %v has %d cells for %d columns", t.Title, vals, len(vals), len(t.Columns)))
	}
	t.rows = append(t.rows, vals)
}

// Num is a number rendered with its own verb instead of %.4g.
type Num struct {
	V    float64
	Verb string
}

func (n Num) String() string { return fmt.Sprintf(n.Verb, n.V) }

// format renders one cell: floats with %.4g, a blank (nil) cell as "",
// everything else with %v.
func format(v any) string {
	switch x := v.(type) {
	case float32, float64:
		return fmt.Sprintf("%.4g", x)
	case nil:
		return ""
	}
	return fmt.Sprint(v)
}

// number reports the value of a numeric cell.
func number(v any) (float64, bool) {
	if n, ok := v.(Num); ok {
		return n.V, true
	}
	switch x := reflect.ValueOf(v); {
	case x.CanFloat():
		return x.Float(), true
	case x.CanInt():
		return float64(x.Int()), true
	case x.CanUint():
		return float64(x.Uint()), true
	}
	return 0, false
}

// Values calls fn with the name and value of every numeric cell, row by row.
// A name is Key.label.column: the label is the row's leading string cells
// joined by "/" or, when the row starts with a number, that number as
// rendered.
func (t *Table) Values(fn func(name string, v float64)) {
	for _, r := range t.rows {
		var label []string
		for _, c := range r {
			s, ok := c.(string)
			if !ok {
				break
			}
			label = append(label, s)
		}
		if label == nil && len(r) > 0 {
			label = []string{format(r[0])}
		}
		prefix := t.Key + "." + strings.Join(label, "/") + "."
		for j := len(label); j < len(r); j++ {
			if v, ok := number(r[j]); ok {
				fn(prefix+t.Columns[j], v)
			}
		}
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	rows := make([][]string, len(t.rows))
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for i, r := range t.rows {
		rows[i] = make([]string, len(r))
		for j, v := range r {
			rows[i][j] = format(v)
			widths[j] = max(widths[j], len(rows[i][j]))
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
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no title).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, r := range t.rows {
		for j, v := range r {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(format(v))
		}
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
// column per series. Its points are named Key.x.series (see Values).
type Figure struct {
	Key    string
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewFigure creates an empty figure.
func NewFigure(key, title, xlabel, ylabel string) *Figure {
	return &Figure{Key: key, Title: title, XLabel: xlabel, YLabel: ylabel}
}

// NewSeries adds and returns a named series.
func (f *Figure) NewSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// table lays the figure out as a table: the x column, in first-seen order,
// then one column per series. Series may have disjoint x values; missing
// cells are blank.
func (f *Figure) table() *Table {
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	t := NewTable(f.Key, fmt.Sprintf("%s  (y: %s)", f.Title, f.YLabel), cols...)
	rows := map[float64][]any{}
	for si, s := range f.Series {
		for i, x := range s.X {
			if rows[x] == nil {
				rows[x] = make([]any, len(cols))
				rows[x][0] = trimFloat(x)
				t.rows = append(t.rows, rows[x])
			}
			if rows[x][si+1] == nil {
				rows[x][si+1] = trimFloat(s.Y[i])
			}
		}
	}
	return t
}

// String renders the figure as an aligned table.
func (f *Figure) String() string { return f.table().String() }

// CSV renders the figure's table as comma-separated values.
func (f *Figure) CSV() string { return f.table().CSV() }

// Values calls fn with the name and value of every point: Key.x.series,
// with x rendered as in String.
func (f *Figure) Values(fn func(name string, v float64)) {
	for _, s := range f.Series {
		for i, x := range s.X {
			fn(f.Key+"."+trimFloat(x)+"."+s.Name, s.Y[i])
		}
	}
}

func trimFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
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
