package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Content-Type of the rendered exposition. The document
// is valid Prometheus text format and carries the OpenMetrics structural
// conventions (typed families, _total counter samples, a trailing # EOF).
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Render writes the full exposition document. The output is deterministic
// for a given registry state: families sorted by name, series sorted by
// label values, shortest-round-trip float formatting.
func (r *Registry) Render(w io.Writer) error {
	for _, f := range r.snapshotFamilies() {
		if err := f.render(w); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

// Handler returns an http.Handler serving the exposition (a /metrics
// endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		w.WriteHeader(http.StatusOK)
		_ = r.Render(w)
	})
}

func (f *family) render(w io.Writer) error {
	f.mu.Lock()
	rows := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		rows = append(rows, s)
	}
	counterFn, gaugeFn := f.counterFn, f.gaugeFn
	f.mu.Unlock()
	if len(rows) == 0 && counterFn == nil && gaugeFn == nil {
		return nil // nothing to say yet: a family with no series renders nothing
	}
	sort.Slice(rows, func(i, j int) bool {
		return lessStrings(rows[i].labelValues, rows[j].labelValues)
	})

	var b strings.Builder
	if f.help != "" {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
	switch {
	case counterFn != nil:
		fmt.Fprintf(&b, "%s_total %d\n", f.name, counterFn())
	case gaugeFn != nil:
		fmt.Fprintf(&b, "%s %s\n", f.name, formatFloat(gaugeFn()))
	default:
		for _, s := range rows {
			f.renderSeries(&b, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) renderSeries(b *strings.Builder, s *series) {
	labels := labelString(f.labels, s.labelValues, "", "")
	switch f.typ {
	case TypeCounter:
		fmt.Fprintf(b, "%s_total%s %d\n", f.name, labels, s.counter.Value())
	case TypeGauge:
		fmt.Fprintf(b, "%s%s %s\n", f.name, labels, formatFloat(s.gauge.Value()))
	case TypeHistogram:
		h := s.histogram
		var cum uint64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			le := labelString(f.labels, s.labelValues, "le", formatFloat(bound))
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, le, cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		le := labelString(f.labels, s.labelValues, "le", "+Inf")
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, le, cum)
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labels, formatFloat(h.Sum()))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, labels, cum)
	}
}

// labelString renders {a="x",b="y"} with an optional extra pair appended
// (the histogram "le" label); it returns "" for a label-free series with no
// extra.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the way the exposition format expects:
// shortest form that round-trips, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabelValue escapes backslash, double-quote and newline, per the
// exposition format.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func lessStrings(a, b []string) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
