package main

import (
	"fmt"
	"math"
	"sort"
)

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4), the rule the benchmark's acceptance
// check uses, so -aa reads the same spread the check will.
func quartiles(values []float64) [3]float64 {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	var q [3]float64
	if ld < 2 {
		for i := range q {
			q[i] = data[0]
		}
		return q
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		q[i-1] = (data[j-1]*(n-delta) + data[j]*delta) / n
	}
	return q
}

// runAA runs the same binary against itself: o.aa pairs of runs per
// workload, alternating which set goes first, untraced for the end-to-end
// metrics and traced for the simulated counts. Two sets of one program must
// agree within the bounds the benchmark gates later changes with; if they do
// not, the benchmark is too noisy for its own bounds.
func runAA(o options) (bool, error) {
	fmt.Println(readHost())
	fmt.Printf("A/A: %d alternated pairs per workload, seed %d, %d s runs\n", o.aa, o.seed, o.seconds)
	ok := true
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		var counts map[string]float64
		for pair := 0; pair < o.aa; pair++ {
			for k := 0; k < 2; k++ {
				set := (pair + k) % 2 // A B, B A, A B, ...
				line, text, err := child(o, w, 0)
				if err != nil {
					return false, err
				}
				traced, ttext, err := child(o, w, 1)
				if err != nil {
					return false, err
				}
				if !line.Correct || !traced.Correct {
					ok = false
					fmt.Printf("%s pair %d: ops_failed=%d (untraced) %d (traced)\n%s%s", w.Name, pair, line.Failed, traced.Failed, text, ttext)
				}
				for _, d := range endToEnd {
					sets[set][d.Name] = append(sets[set][d.Name], line.Metrics[d.Name].Value)
				}
				cur := map[string]float64{}
				for _, name := range simulated {
					cur[name] = traced.Metrics[name].Value
				}
				if counts == nil {
					counts = cur
				}
				for _, name := range simulated {
					if cur[name] != counts[name] {
						ok = false
						fmt.Printf("%s: simulated metric %s did not repeat: %v then %v\n", w.Name, name, counts[name], cur[name])
					}
				}
			}
		}
		fmt.Printf("\n== %s\n%-18s %-8s %14s %14s %14s | %14s %14s %14s | %9s %9s %7s\n", w.Name,
			"metric", "unit", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "diff", "spread", "bound")
		for _, d := range endToEnd {
			qa, qb := quartiles(sets[0][d.Name]), quartiles(sets[1][d.Name])
			diff := math.Abs(qb[1] - qa[1])
			spread := math.Max(qa[2]-qa[0], qb[2]-qb[0])
			verdict := ""
			if diff > math.Max(d.Bound*qa[1], d.Floor) {
				verdict = "  EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("%-18s %-8s %14.5f %14.5f %14.5f | %14.5f %14.5f %14.5f | %8.2f%% %8.2f%% %6.0f%%%s\n",
				d.Name, d.Unit, qa[0], qa[1], qa[2], qb[0], qb[1], qb[2],
				diff/qa[1]*100, spread/qa[1]*100, d.Bound*100, verdict)
		}
	}
	if ok {
		fmt.Println("\nA/A passed: both sets agree within the bounds, no op failed, simulated counts repeated exactly")
	} else {
		fmt.Println("\nA/A FAILED")
	}
	return ok, nil
}
