package viz

import (
	"math"
	"strings"
	"testing"
)

func TestHeatmapRendering(t *testing.T) {
	rows := []string{"local age", "hop count"}
	cols := []string{"core.0", "core.1", "core.2", "core.3", "west.0", "west.1", "west.2", "west.3"}
	vals := [][]float64{
		{0.9, 0.1, 0.5, 0.3, 0.2, 0.6, 0.4, 0.8},
		{0, -0.9, 0.2, 0.1, 0.7, 0.3, 0.5, 0.2},
	}
	out := Heatmap(rows, cols, vals)
	if !strings.Contains(out, "local age") || !strings.Contains(out, "hop count") {
		t.Fatalf("missing row labels:\n%s", out)
	}
	if !strings.Contains(out, "core") || !strings.Contains(out, "west") {
		t.Fatalf("missing column groups:\n%s", out)
	}
	// Magnitude 0.9 maps to the darkest shade; magnitude 0 to blank.
	if !strings.Contains(out, "@") {
		t.Fatalf("max value not darkest:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	// Each data line has exactly len(cols) cells between the pipes.
	for _, l := range lines {
		if i := strings.IndexByte(l, '|'); i >= 0 {
			j := strings.LastIndexByte(l, '|')
			if j-i-1 != len(cols) {
				t.Fatalf("row width %d, want %d: %q", j-i-1, len(cols), l)
			}
		}
	}
}

func TestHeatmapEmpty(t *testing.T) {
	if out := Heatmap(nil, nil, nil); !strings.Contains(out, "empty") {
		t.Fatalf("empty heatmap rendering: %q", out)
	}
}

func TestHeatmapCSV(t *testing.T) {
	out := HeatmapCSV([]string{"r1"}, []string{"a", "b"}, [][]float64{{1, 2}})
	want := "feature,a,b\nr1,1.000000,2.000000\n"
	if out != want {
		t.Fatalf("CSV = %q, want %q", out, want)
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"name", "value"}, [][]string{
		{"a", "1"},
		{"long-name", "22"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
	// All "value" entries start in the same column.
	col := strings.Index(lines[0], "value")
	if col < 0 {
		t.Fatal("header missing")
	}
	if lines[2][col] != '1' || lines[3][col] != '2' {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestSeries(t *testing.T) {
	out := Series("epoch", []string{"1", "2"}, []string{"a", "b"},
		[][]float64{{1.5, 2.5}, {3.5}})
	if !strings.Contains(out, "epoch") || !strings.Contains(out, "1.50") {
		t.Fatalf("series rendering:\n%s", out)
	}
	// Short series pad with "-".
	if !strings.Contains(out, "-") {
		t.Fatalf("missing padding for short series:\n%s", out)
	}
}

func TestShadeBounds(t *testing.T) {
	if shade(0, 1) != ' ' {
		t.Fatal("zero not blank")
	}
	if shade(1, 1) != '@' {
		t.Fatal("max not darkest")
	}
	if shade(5, 0) != ' ' { // degenerate max
		t.Fatal("degenerate max not blank")
	}
}

func TestCSV(t *testing.T) {
	out := CSV([]string{"a", "b"}, [][]string{{"1", "x,y"}, {"2", `q"z`}})
	want := "a,b\n1,\"x,y\"\n2,\"q\"\"z\"\n"
	if out != want {
		t.Fatalf("CSV = %q, want %q", out, want)
	}
}

func TestMatrixCSV(t *testing.T) {
	out := MatrixCSV("w", []string{"r1"}, []string{"c1", "c2"}, [][]float64{{1.5, 2}})
	want := "w,c1,c2\nr1,1.5,2\n"
	if out != want {
		t.Fatalf("MatrixCSV = %q, want %q", out, want)
	}
}

// TestHeatmapDegenerate pins the explicit handling of matrices the range
// normalization cannot spread: all-zero renders blank, all-equal non-zero
// (including all-negative) renders uniformly darkest with the dedicated
// legend, and neither divides by zero or emits NaN.
func TestHeatmapDegenerate(t *testing.T) {
	cells := func(out string) string {
		var b strings.Builder
		for _, l := range strings.Split(out, "\n") {
			if i := strings.IndexByte(l, '|'); i >= 0 {
				b.WriteString(l[i+1 : strings.LastIndexByte(l, '|')])
			}
		}
		return b.String()
	}

	zero := Heatmap([]string{"r"}, []string{"a", "b"}, [][]float64{{0, 0}})
	if got := cells(zero); strings.Trim(got, " ") != "" {
		t.Fatalf("all-zero matrix not blank: %q\n%s", got, zero)
	}
	if strings.Contains(zero, "NaN") {
		t.Fatalf("all-zero legend contains NaN:\n%s", zero)
	}

	neg := Heatmap([]string{"r"}, []string{"a", "b"}, [][]float64{{-0.7, -0.7}})
	if got := cells(neg); got != "@@" {
		t.Fatalf("all-equal negative matrix cells %q, want \"@@\"\n%s", got, neg)
	}
	if !strings.Contains(neg, "uniform magnitude 0.7000") {
		t.Fatalf("uniform matrix legend missing:\n%s", neg)
	}
}

// TestHeatmapNarrowBand pins the range normalization itself: magnitudes
// clustered in a narrow band still span the full shade ramp.
func TestHeatmapNarrowBand(t *testing.T) {
	out := Heatmap([]string{"r"}, []string{"a", "b"}, [][]float64{{0.90, 1.0}})
	if !strings.Contains(out, "@") {
		t.Fatalf("band max not darkest:\n%s", out)
	}
	row := out[strings.IndexByte(out, '|')+1:]
	if row[0] != ' ' {
		t.Fatalf("band min cell %q, want blank (range-normalized)\n%s", row[0], out)
	}
	if !strings.Contains(out, "' '=0.9000 .. '@'=1.0000") {
		t.Fatalf("range legend missing:\n%s", out)
	}
}

func TestShadeNormDegenerate(t *testing.T) {
	if got := shadeNorm(0.5, 0.5, 0.5); got != '@' {
		t.Fatalf("zero-width non-zero range shade %q, want '@'", got)
	}
	if got := shadeNorm(0, 0, 0); got != ' ' {
		t.Fatalf("no-magnitude shade %q, want blank", got)
	}
	if got := shadeNorm(math.NaN(), 0, 1); got != ' ' {
		t.Fatalf("NaN shade %q, want blank", got)
	}
}
