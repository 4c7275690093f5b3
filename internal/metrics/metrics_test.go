package metrics

import (
	"fmt"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("t", "t", "name", "value")
	tb.AddRow("a", 1)
	tb.AddRow("longer-name", 2.5)
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "longer-name") || !strings.Contains(out, "2.5") {
		t.Fatalf("missing cells:\n%s", out)
	}
	// Header and rows share column start offsets.
	if strings.Index(lines[1], "value") != strings.Index(lines[3], "1") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "t", "a", "b")
	tb.AddRow("x", 1)
	csv := tb.CSV()
	if csv != "a,b\nx,1\n" {
		t.Fatalf("CSV = %q", csv)
	}
}

// Cells keep their types until rendered: floats at %.4g, a Num with its own
// verb, and every numeric cell is a value named key.label.column.
func TestTableTypedCells(t *testing.T) {
	tb := NewTable("k", "t", "sys", "op", "GB/s", "n", "fair", "note")
	tb.AddRow("CAM", "Read", 19.87654, 12, Num{V: 0.98765, Verb: "%.2f"}, "x")
	tb.AddRow(4, "ignored", 1.5)
	if got, want := tb.CSV(), "sys,op,GB/s,n,fair,note\nCAM,Read,19.88,12,0.99,x\n4,ignored,1.5\n"; got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
	var got []string
	tb.Values(func(name string, v float64) { got = append(got, fmt.Sprintf("%s=%g", name, v)) })
	want := []string{"k.CAM/Read.GB/s=19.87654", "k.CAM/Read.n=12", "k.CAM/Read.fair=0.98765", "k.4.GB/s=1.5"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Values = %v, want %v", got, want)
	}
}

// A row longer than the header fails where it is added, naming the table.
func TestAddRowTooManyCellsPanics(t *testing.T) {
	defer func() {
		if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), `"wide"`) {
			t.Fatalf("recover() = %v, want a panic naming table \"wide\"", v)
		}
	}()
	NewTable("k", "wide", "a").AddRow(1, 2)
}

func TestFigureMergesXValues(t *testing.T) {
	f := NewFigure("f", "fig", "n", "gbps")
	s1 := f.NewSeries("cam")
	s2 := f.NewSeries("bam")
	s1.Add(1, 2.0)
	s1.Add(2, 4.0)
	s2.Add(2, 3.5)
	out := f.String()
	if !strings.Contains(out, "cam") || !strings.Contains(out, "bam") {
		t.Fatalf("series headers missing:\n%s", out)
	}
	if !strings.Contains(out, "3.5") {
		t.Fatalf("second series value missing:\n%s", out)
	}
	if got, want := f.CSV(), "n,cam,bam\n1,2,\n2,4,3.5\n"; got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
	var names []string
	f.Values(func(name string, v float64) { names = append(names, fmt.Sprintf("%s=%g", name, v)) })
	if got, want := fmt.Sprint(names), "[f.1.cam=2 f.2.cam=4 f.2.bam=3.5]"; got != want {
		t.Errorf("Values = %s, want %s", got, want)
	}
}

func TestBytesFormatting(t *testing.T) {
	cases := map[float64]string{
		512:             "512B",
		2048:            "2.00KiB",
		3 << 20:         "3.00MiB",
		1.5 * (1 << 30): "1.50GiB",
	}
	for in, want := range cases {
		if got := Bytes(in); got != want {
			t.Errorf("Bytes(%g) = %q, want %q", in, got, want)
		}
	}
}

func TestGBps(t *testing.T) {
	if got := GBps(21e9); got != "21.00GB/s" {
		t.Fatalf("GBps = %q", got)
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(4096) != "4096" {
		t.Fatal("integral floats should render without decimals")
	}
	if trimFloat(1.25) != "1.25" {
		t.Fatalf("got %s", trimFloat(1.25))
	}
}
