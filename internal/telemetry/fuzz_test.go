package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"testing"
)

// FuzzParse feeds arbitrary documents to Parse and Lint. Neither may panic,
// they must agree on what they accept, and every document they accept must
// meet the contract Parse documents: each sample follows its family's
// # TYPE, names and label names are valid, counter samples end in _total,
// and each histogram series has buckets with strictly increasing le and
// non-decreasing counts, a +Inf bucket, and a _count equal to it. The
// committed corpus holds a registry's real rendering and the malformed
// documents TestParseRejectsMalformed lists.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc string) {
		fams, err := Parse(doc)
		if lintErr := Lint(doc); (lintErr == nil) != (err == nil) {
			t.Fatalf("Parse says %v, Lint says %v", err, lintErr)
		}
		if err != nil {
			return
		}
		for _, fam := range fams {
			if err := meetsContract(fam); err != nil {
				t.Fatalf("accepted a document that breaks the contract: %v\n%q", err, doc)
			}
		}
	})
}

// meetsContract checks one parsed family against Parse's contract, written
// out anew: a series is keyed by its quoted label pairs, le aside.
func meetsContract(f Family) error {
	if !validMetricName(f.Name) {
		return fmt.Errorf("family name %q", f.Name)
	}
	if len(f.Samples) > 0 && f.Type != TypeCounter && f.Type != TypeGauge && f.Type != TypeHistogram {
		return fmt.Errorf("family %q has samples but type %q", f.Name, f.Type)
	}
	type series struct {
		le, count float64 // the last bucket's
		inf       bool
		counts    []float64
	}
	all := map[string]*series{}
	for _, s := range f.Samples {
		var key []string
		for _, kv := range s.Labels {
			if !validLabelName(kv[0]) {
				return fmt.Errorf("label name %q", kv[0])
			}
			if kv[0] != "le" {
				key = append(key, kv[0]+"="+strconv.Quote(kv[1]))
			}
		}
		sort.Strings(key)
		ser := all[fmt.Sprint(key)]
		if ser == nil {
			ser = &series{le: math.Inf(-1)}
			all[fmt.Sprint(key)] = ser
		}
		switch {
		case f.Type == TypeCounter && s.Name != f.Name+"_total",
			f.Type == TypeGauge && s.Name != f.Name:
			return fmt.Errorf("%s sample %q in family %q", f.Type, s.Name, f.Name)
		case f.Type != TypeHistogram:
		case s.Name == f.Name+"_bucket":
			le, err := strconv.ParseFloat(s.Label("le"), 64)
			if err != nil || !(le > ser.le) || ser.inf {
				return fmt.Errorf("histogram %q%v: bucket le %q after %g", f.Name, key, s.Label("le"), ser.le)
			}
			if !(s.Value >= ser.count) {
				return fmt.Errorf("histogram %q%v: bucket count %g after %g", f.Name, key, s.Value, ser.count)
			}
			ser.le, ser.count, ser.inf = le, s.Value, math.IsInf(le, 1)
		case s.Name == f.Name+"_count":
			ser.counts = append(ser.counts, s.Value)
		case s.Name != f.Name+"_sum":
			return fmt.Errorf("histogram sample %q in family %q", s.Name, f.Name)
		}
	}
	for key, ser := range all {
		if f.Type != TypeHistogram {
			break
		}
		if !ser.inf || len(ser.counts) == 0 {
			return fmt.Errorf("histogram %q%s: +Inf bucket %v, %d _count samples", f.Name, key, ser.inf, len(ser.counts))
		}
		for _, c := range ser.counts {
			if c != ser.count {
				return fmt.Errorf("histogram %q%s: _count %g, +Inf bucket %g", f.Name, key, c, ser.count)
			}
		}
	}
	return nil
}
