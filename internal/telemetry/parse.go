package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: the full sample name (including any
// _total/_bucket/_sum/_count suffix), its label pairs in document order, and
// the value.
type Sample struct {
	Name   string
	Labels [][2]string
	Value  float64
}

// Label returns the value of the named label ("" when absent).
func (s *Sample) Label(name string) string {
	for _, kv := range s.Labels {
		if kv[0] == name {
			return kv[1]
		}
	}
	return ""
}

// baseKey identifies one series within a family: the label pairs minus any
// "le", in sorted order, each value quoted so that no two label sets share a
// key.
func (s *Sample) baseKey() string {
	pairs := make([]string, 0, len(s.Labels))
	for _, kv := range s.Labels {
		if kv[0] == "le" {
			continue
		}
		pairs = append(pairs, kv[0]+"="+strconv.Quote(kv[1]))
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

// Family is one parsed metric family.
type Family struct {
	Name    string
	Type    MetricType
	Help    string
	Samples []Sample
}

// Find returns the first sample with the given full name whose labels all
// match want (extra labels on the sample are allowed), or nil.
func Find(fams []Family, name string, want map[string]string) *Sample {
	for i := range fams {
		for j := range fams[i].Samples {
			s := &fams[i].Samples[j]
			if s.Name != name {
				continue
			}
			ok := true
			for k, v := range want {
				if s.Label(k) != v {
					ok = false
					break
				}
			}
			if ok {
				return s
			}
		}
	}
	return nil
}

// Parse reads an exposition document produced by Render (or any conforming
// Prometheus text/OpenMetrics renderer that sticks to typed families) and
// returns its families. It is strict: every sample must belong to a
// preceding # TYPE declaration, names and labels must be valid, counter
// samples must carry the _total suffix, histogram series must have monotone
// cumulative buckets ending in a +Inf bucket that equals _count, and the
// document must end with # EOF.
func Parse(text string) ([]Family, error) {
	var fams []Family
	var cur *Family
	sawEOF := false
	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if sawEOF {
			return nil, fmt.Errorf("line %d: content after # EOF", lineNo)
		}
		if strings.HasPrefix(line, "#") {
			if line == "# EOF" {
				sawEOF = true
				continue
			}
			kind, name, rest, err := parseComment(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			switch kind {
			case "HELP":
				if cur == nil || cur.Name != name {
					fams = append(fams, Family{Name: name})
					cur = &fams[len(fams)-1]
				}
				cur.Help = rest
			case "TYPE":
				typ := MetricType(rest)
				if typ != TypeCounter && typ != TypeGauge && typ != TypeHistogram {
					return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, rest)
				}
				if cur == nil || cur.Name != name {
					fams = append(fams, Family{Name: name})
					cur = &fams[len(fams)-1]
				}
				if cur.Type != "" {
					return nil, fmt.Errorf("line %d: duplicate # TYPE for %q", lineNo, name)
				}
				cur.Type = typ
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if cur == nil || cur.Type == "" {
			return nil, fmt.Errorf("line %d: sample %q before any # TYPE declaration", lineNo, s.Name)
		}
		if err := checkSampleName(cur, s.Name); err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		cur.Samples = append(cur.Samples, s)
	}
	if !sawEOF {
		return nil, fmt.Errorf("document does not end with # EOF")
	}
	for i := range fams {
		if fams[i].Type == TypeHistogram {
			if err := checkHistogram(&fams[i]); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

// parseComment splits "# HELP name rest" / "# TYPE name rest".
func parseComment(line string) (kind, name, rest string, err error) {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return "", "", "", fmt.Errorf("malformed comment %q", line)
	}
	kind = fields[1]
	if kind != "HELP" && kind != "TYPE" {
		return "", "", "", fmt.Errorf("unknown comment keyword %q", kind)
	}
	name = fields[2]
	if !validMetricName(name) {
		return "", "", "", fmt.Errorf("invalid metric name %q", name)
	}
	if len(fields) == 4 {
		rest = fields[3]
	}
	return kind, name, rest, nil
}

// parseSample parses `name{a="b",...} value`.
func parseSample(line string) (Sample, error) {
	var s Sample
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	s.Name = line[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid sample name %q", s.Name)
	}
	if i < len(line) && line[i] == '{' {
		rest, labels, err := parseLabels(line[i:])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		line = rest
	} else {
		line = line[i:]
	}
	line = strings.TrimPrefix(line, " ")
	if line == "" || strings.ContainsRune(line, ' ') {
		return s, fmt.Errorf("expected exactly one value after %q", s.Name)
	}
	v, err := parseValue(line)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels consumes a {a="b",c="d"} block and returns the remainder.
func parseLabels(in string) (rest string, labels [][2]string, err error) {
	i := 1 // past '{'
	for {
		if i >= len(in) {
			return "", nil, fmt.Errorf("unterminated label block")
		}
		if in[i] == '}' {
			return in[i+1:], labels, nil
		}
		j := i
		for j < len(in) && in[j] != '=' {
			j++
		}
		name := in[i:j]
		if !validLabelName(name) {
			return "", nil, fmt.Errorf("invalid label name %q", name)
		}
		if j+1 >= len(in) || in[j+1] != '"' {
			return "", nil, fmt.Errorf("label %q value is not quoted", name)
		}
		value, end, err := unescapeLabelValue(in, j+2)
		if err != nil {
			return "", nil, err
		}
		labels = append(labels, [2]string{name, value})
		i = end
		if i < len(in) && in[i] == ',' {
			i++
		}
	}
}

// unescapeLabelValue reads a quoted label value starting at in[start] (just
// past the opening quote) and returns the value and the index past the
// closing quote.
func unescapeLabelValue(in string, start int) (string, int, error) {
	var b strings.Builder
	for i := start; i < len(in); i++ {
		switch in[i] {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			if i+1 >= len(in) {
				return "", 0, fmt.Errorf("dangling escape in label value")
			}
			i++
			switch in[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("invalid escape \\%c in label value", in[i])
			}
		default:
			b.WriteByte(in[i])
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

// parseValue accepts any strconv float, which includes the exposition
// spellings +Inf, -Inf and NaN.
func parseValue(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}

// checkSampleName enforces the per-type sample naming contract.
func checkSampleName(f *Family, sample string) error {
	switch f.Type {
	case TypeCounter:
		if sample != f.Name+"_total" {
			return fmt.Errorf("counter %q sample must be %s_total, got %q", f.Name, f.Name, sample)
		}
	case TypeGauge:
		if sample != f.Name {
			return fmt.Errorf("gauge %q sample must be named %q, got %q", f.Name, f.Name, sample)
		}
	case TypeHistogram:
		switch sample {
		case f.Name + "_bucket", f.Name + "_sum", f.Name + "_count":
		default:
			return fmt.Errorf("histogram %q sample must be _bucket/_sum/_count, got %q", f.Name, sample)
		}
	}
	return nil
}

// checkHistogram validates each series of a histogram family: cumulative
// bucket counts non-decreasing with increasing le, a +Inf bucket present,
// and one _count, equal to the +Inf bucket. The comparisons are written so
// that a NaN le or count fails them.
func checkHistogram(f *Family) error {
	type state struct {
		lastLe    float64
		lastCount float64
		inf       float64
		hasInf    bool
		count     float64
		hasCount  bool
	}
	states := map[string]*state{}
	get := func(s *Sample) *state {
		k := s.baseKey()
		st, ok := states[k]
		if !ok {
			st = &state{lastLe: math.Inf(-1)}
			states[k] = st
		}
		return st
	}
	for i := range f.Samples {
		s := &f.Samples[i]
		st := get(s)
		switch s.Name {
		case f.Name + "_bucket":
			leStr := s.Label("le")
			if leStr == "" {
				return fmt.Errorf("histogram %q bucket without le label", f.Name)
			}
			le, err := parseValue(leStr)
			if err != nil {
				return fmt.Errorf("histogram %q: bad le %q", f.Name, leStr)
			}
			if !(le > st.lastLe) {
				return fmt.Errorf("histogram %q: le %q out of order", f.Name, leStr)
			}
			if !(s.Value >= st.lastCount) {
				return fmt.Errorf("histogram %q: cumulative bucket counts decreased at le=%q", f.Name, leStr)
			}
			st.lastLe, st.lastCount = le, s.Value
			if leStr == "+Inf" {
				st.inf, st.hasInf = s.Value, true
			}
		case f.Name + "_count":
			if st.hasCount {
				return fmt.Errorf("histogram %q{%s} has two _count samples", f.Name, s.baseKey())
			}
			st.count, st.hasCount = s.Value, true
		}
	}
	for key, st := range states {
		if !st.hasInf {
			return fmt.Errorf("histogram %q{%s} has no +Inf bucket", f.Name, key)
		}
		if !st.hasCount {
			return fmt.Errorf("histogram %q{%s} has no _count sample", f.Name, key)
		}
		if st.count != st.inf {
			return fmt.Errorf("histogram %q{%s}: _count %g != +Inf bucket %g", f.Name, key, st.count, st.inf)
		}
	}
	return nil
}
