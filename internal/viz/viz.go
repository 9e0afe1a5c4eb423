// Package viz renders experiment results as plain text: shaded ASCII
// heatmaps (for the paper's Figs. 4 and 7 weight visualizations), aligned
// result tables, series tables for training curves, and CSV export.
package viz

import (
	"fmt"
	"math"
	"strings"
)

// shades orders cells from lightest to darkest, mirroring the paper's
// "darker pixel = higher magnitude" convention.
var shades = []byte(" .:-=+*#%@")

// shade maps v in [0, max] to a shade character.
func shade(v, max float64) byte {
	if max <= 0 || math.IsNaN(v) {
		return shades[0]
	}
	i := int(v / max * float64(len(shades)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(shades) {
		i = len(shades) - 1
	}
	return shades[i]
}

// Heatmap renders a shaded grid with row and column labels. Cell magnitudes
// are normalized over the observed [min |v|, max |v|] range — not against the
// maximum alone — so matrices whose magnitudes cluster in a narrow band (e.g.
// trained weight rows hovering around one value) still show contrast.
// Degenerate matrices never divide by zero: an all-zero matrix renders blank
// and an all-equal non-zero matrix (including all-negative ones) renders
// uniformly darkest. Column labels are grouped: consecutive labels sharing
// the prefix before the last '.' are printed once.
func Heatmap(rowLabels, colLabels []string, values [][]float64) string {
	if len(values) == 0 {
		return "(empty heatmap)\n"
	}
	minAbs, maxAbs := math.Inf(1), 0.0
	for _, row := range values {
		for _, v := range row {
			a := math.Abs(v)
			if math.IsNaN(a) {
				continue
			}
			if a > maxAbs {
				maxAbs = a
			}
			if a < minAbs {
				minAbs = a
			}
		}
	}
	if math.IsInf(minAbs, 1) {
		minAbs = 0
	}
	labelW := 0
	for _, l := range rowLabels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}

	var b strings.Builder
	// Column group header: one segment per port prefix.
	b.WriteString(strings.Repeat(" ", labelW+2))
	i := 0
	for i < len(colLabels) {
		prefix := groupPrefix(colLabels[i])
		j := i
		for j < len(colLabels) && groupPrefix(colLabels[j]) == prefix {
			j++
		}
		seg := prefix
		width := j - i
		if len(seg) > width {
			seg = seg[:width]
		}
		b.WriteString(seg)
		b.WriteString(strings.Repeat(" ", width-len(seg)))
		i = j
	}
	b.WriteByte('\n')

	for r, row := range values {
		label := ""
		if r < len(rowLabels) {
			label = rowLabels[r]
		}
		fmt.Fprintf(&b, "%-*s |", labelW, label)
		for _, v := range row {
			b.WriteByte(shadeNorm(math.Abs(v), minAbs, maxAbs))
		}
		b.WriteString("|\n")
	}
	if maxAbs > 0 && maxAbs-minAbs <= 0 {
		fmt.Fprintf(&b, "%-*s  scale: uniform magnitude %.4f\n", labelW, "", maxAbs)
	} else {
		fmt.Fprintf(&b, "%-*s  scale: ' '=%.4f .. '@'=%.4f\n", labelW, "", minAbs, maxAbs)
	}
	return b.String()
}

// shadeNorm maps magnitude a onto the shade ramp normalized over the observed
// magnitude range [minAbs, maxAbs]. Degenerate ranges are explicit rather
// than divisions by zero: no observed magnitude (maxAbs <= 0) renders blank,
// a zero-width range of non-zero magnitudes renders darkest.
func shadeNorm(a, minAbs, maxAbs float64) byte {
	if math.IsNaN(a) || maxAbs <= 0 {
		return shades[0]
	}
	span := maxAbs - minAbs
	if span <= 0 {
		return shades[len(shades)-1]
	}
	return shade(a-minAbs, span)
}

func groupPrefix(label string) string {
	if i := strings.LastIndexByte(label, '.'); i >= 0 {
		return label[:i]
	}
	return label
}

// HeatmapCSV renders the grid as CSV with labels.
func HeatmapCSV(rowLabels, colLabels []string, values [][]float64) string {
	var b strings.Builder
	b.WriteString("feature")
	for _, c := range colLabels {
		b.WriteByte(',')
		b.WriteString(c)
	}
	b.WriteByte('\n')
	for r, row := range values {
		label := ""
		if r < len(rowLabels) {
			label = rowLabels[r]
		}
		b.WriteString(label)
		for _, v := range row {
			fmt.Fprintf(&b, ",%.6f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table renders rows under headers with aligned columns.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Series renders named series over a shared x-axis as an aligned table —
// the textual form of the paper's line plots (Figs. 12 and 13).
func Series(xName string, xs []string, names []string, series [][]float64) string {
	headers := append([]string{xName}, names...)
	rows := make([][]string, len(xs))
	for i, x := range xs {
		row := []string{x}
		for _, s := range series {
			if i < len(s) {
				row = append(row, fmt.Sprintf("%.2f", s[i]))
			} else {
				row = append(row, "-")
			}
		}
		rows[i] = row
	}
	return Table(headers, rows)
}

// CSV renders headers and rows as comma-separated values. Cells containing
// commas or quotes are quoted.
func CSV(headers []string, rows [][]string) string {
	var b strings.Builder
	writeCSVRow(&b, headers)
	for _, r := range rows {
		writeCSVRow(&b, r)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}

// MatrixCSV renders a labelled numeric matrix as CSV.
func MatrixCSV(rowName string, rowLabels, colLabels []string, m [][]float64) string {
	headers := append([]string{rowName}, colLabels...)
	rows := make([][]string, len(rowLabels))
	for i, rl := range rowLabels {
		cells := []string{rl}
		for _, v := range m[i] {
			cells = append(cells, fmt.Sprintf("%g", v))
		}
		rows[i] = cells
	}
	return CSV(headers, rows)
}
