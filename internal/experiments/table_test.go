package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestTableNames: entry names are unique, and "all" runs the entries it ran
// before it became a walk over Table, in the same order.
func TestTableNames(t *testing.T) {
	seen := map[string]bool{}
	var all []string
	for _, e := range Table {
		if seen[e.Name] {
			t.Errorf("entry %q appears twice", e.Name)
		}
		seen[e.Name] = true
		if !e.Solo {
			all = append(all, e.Name)
		}
	}
	want := []string{
		"table1", "table2", "table3", "fig4", "fig5", "fig7",
		"fig9+10", "fig11", "fig12", "fig13", "ablation", "starvation",
		"fairness", "faults", "qtable", "flitcheck", "bufablation", "tiebreak",
		"derive", "hillclimb", "quant",
	}
	if !reflect.DeepEqual(all, want) {
		t.Errorf("all runs %v, want %v", all, want)
	}
}

// TestTableRuns runs every entry twice at once: both runs must give the same
// Result, and a CSV name must mean one artifact across the whole table (fig9
// and fig9+10 both write fig9_avg.csv, so they must write the same bytes).
// The scaling entry times its runs, so only its deterministic CSV is compared.
func TestTableRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	in := Input{Scale: tinyScale(), TrainNN: true, FaultRates: []float64{0, 0.1}, ScalingSizes: []int{4, 6}}
	csv := map[string]string{} // CSV name -> content
	for _, e := range Table {
		t.Run(e.Name, func(t *testing.T) {
			// The two runs overlap, as two daemon workers' jobs do.
			var b Result
			var errB error
			done := make(chan struct{})
			go func() {
				defer close(done)
				b, errB = e.Run(context.Background(), in)
			}()
			a, err := e.Run(context.Background(), in)
			<-done
			if err != nil || errB != nil {
				t.Fatal(err, errB)
			}
			if a.Rendered == "" {
				t.Error("rendered nothing")
			}
			if e.Name == "scaling" {
				a, b = invariantOnly(a), invariantOnly(b)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("two runs differ:\n%s\n%s", a.Rendered, b.Rendered)
			}
			for _, f := range a.CSV {
				if prev, ok := csv[f.Name]; ok && prev != f.Content {
					t.Errorf("%s differs from another entry's %s", f.Name, f.Name)
				}
				csv[f.Name] = f.Content
			}
		})
	}
}

// invariantOnly keeps the part of a scaling Result that does not depend on
// the machine.
func invariantOnly(r Result) Result {
	out := Result{}
	for _, f := range r.CSV {
		if f.Name == "scaling_invariant.csv" {
			out.CSV = append(out.CSV, f)
		}
	}
	return out
}

// TestTableCancelled: every entry returns a cancellation that lands before it
// starts instead of running.
func TestTableCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range Table {
		if _, err := e.Run(ctx, Input{Scale: tinyScale()}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err %v, want context.Canceled", e.Name, err)
		}
	}
}
