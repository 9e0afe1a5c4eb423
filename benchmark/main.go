// Command benchmark is the repository benchmark: five workloads of equal,
// fixed work that together hold every engine path a user of this
// reproduction waits on, four end-to-end metrics per workload, and a layer
// table timed entirely from this directory. README.md defines every name.
//
//	go run ./benchmark                      every workload, both tables
//	go run ./benchmark -workload apu_train  one workload, one JSON result line
//	go run ./benchmark -aa 5                same binary against itself
//	bash benchmark/run.sh ...               the same, built inside the checkout
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the run length the goldens
// are recorded at.
const defaultSeconds = 12

// workloads, in the order they are run and reported.
var workloads = []*workload{
	{
		Name:             "mesh8_dense",
		Why:              "paper's Fig. 5 regime: 8x8 mesh at 90% of saturation, so noc's fused policy path, the route memo and arb do all the work and active-set skipping none",
		OpsPerWindow:     mesh8Dense.Cycles,
		WindowsPerSecond: 400,
		SetupReps:        20,
		GoldenEvery:      100,
		Build:            mesh8Dense.build,
	},
	{
		Name:             "mesh32_sparse_faulted",
		Why:              "32x32 mesh, sparse traffic, two dead links: the same noc layer through active-set bitmaps, route-once arbitration, lazy eviction and fault routing, with arb almost idle",
		OpsPerWindow:     mesh32Sparse.Cycles,
		WindowsPerSecond: 360,
		SetupReps:        20,
		GoldenEvery:      100,
		Build:            mesh32Sparse.build,
	},
	{
		Name:             "apu_infer",
		Why:              "whole APU episodes arbitrated by the frozen 504-input agent: core state build and nn forward dominate, noc, apu and synfull are the rest",
		OpsPerWindow:     1,
		WindowsPerSecond: 34,
		SetupReps:        12,
		GoldenEvery:      0,
		FixedInputs:      true,
		Build: func(_ int64, tr *tracer, lap func()) (instance, error) {
			return apuInfer.build(apuInferSeed, tr, lap)
		},
	},
	{
		Name:             "apu_train",
		Why:              "the trainarb loop, one DQL batch of 32 per simulated cycle: rl and nn backprop are over 90% of the time and noc under 5%",
		OpsPerWindow:     apuTrain.Cycles,
		WindowsPerSecond: 280,
		SetupReps:        8,
		GoldenEvery:      160,
		KernelKeyed:      true,
		Build:            apuTrain.build,
	},
	{
		Name:             "simd_cached",
		Why:              "cached jobs through the simd daemon over real HTTP: serve, telemetry and net/http do all the work and the simulator none",
		OpsPerWindow:     simdOpsPerWindow,
		WindowsPerSecond: 300,
		SetupReps:        8,
		GoldenEvery:      0,
		Build:            buildSimd,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

type options struct {
	workload     string
	seed         int64
	seconds      int
	trace        int
	traceOut     string
	aa           int
	updateGolden bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and end with one JSON result line (default: all, as child processes)")
	flag.Int64Var(&o.seed, "seed", 17, "workload seed; the program under test only receives inputs generated from it")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "run length: fixes the amount of work, about this long on the reference host")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans here as Chrome trace-event JSON")
	flag.IntVar(&o.aa, "aa", 0, "run N alternated pairs of runs of this binary and compare the two sets against the bounds")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "re-record "+goldenPath+" for the golden seeds")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	// Fixed and recorded: the sharded engine and the daemon's worker pool
	// size themselves from it.
	runtime.GOMAXPROCS(2)

	var err error
	ok := true
	switch {
	case o.updateGolden:
		err = updateGolden(o.seconds)
	case o.aa > 0:
		ok, err = runAA(o)
	case o.workload == "":
		ok, err = runAll(o)
	default:
		ok, err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// resultLine is the last line of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process: untraced for the end-to-end
// metrics, or traced for the per-layer ones.
func runOne(o options) (bool, error) {
	w := findWorkload(o.workload)
	if w == nil {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	goldens, err := loadGolden()
	if err != nil {
		return false, err
	}
	golden := goldens.lookup(w, o.seed)
	fmt.Println(readHost())
	var rep *report
	exported := endToEnd
	if o.trace == 1 {
		exported = perLayer
		tr := newTracer()
		if rep, err = measureTraced(w, o.seed, o.seconds, golden, tr); err != nil {
			return false, err
		}
		tr.printSelfTimes()
		if o.traceOut != "" {
			if err := tr.writeFile(o.traceOut, w.Name); err != nil {
				return false, err
			}
		}
	} else if rep, _, err = measure(w, o.seed, o.seconds, golden); err != nil {
		return false, err
	}

	fmt.Printf("workload %s seed=%d trace=%d golden=%t\n", w.Name, o.seed, o.trace, golden != nil)
	line := resultLine{Correct: rep.correct(), Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	for _, d := range exported {
		v := rep.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%-34s %16.6f %s\n", d.Name, v, d.Unit)
	}
	if o.trace == 0 {
		// Diagnostics: printed on every run, exported only with the layers.
		for _, d := range perLayer {
			if v, ok := rep.Metrics[d.Name]; ok && strings.HasPrefix(d.Name, "harness.") {
				fmt.Printf("%-34s %16.6f %s\n", d.Name, v, d.Unit)
			}
		}
	}
	fmt.Printf("ops_attempted %d\nops_failed %d\n", rep.Attempted, rep.Failed)
	if rep.Contended {
		fmt.Printf("contended: the host took %.1f%% of the CPU time away during this run\n", rep.Metrics["harness.steal_pct"])
	}
	for _, f := range rep.Failures {
		fmt.Println("FAILED:", f)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return rep.correct(), nil
}

// child runs one workload in a process of its own, so peak_rss_mb and the
// garbage collector's state belong to that workload alone, and returns its
// result line and the text it printed before it.
func child(o options, w *workload, trace int) (*resultLine, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	args := []string{
		"-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace),
	}
	if trace == 1 && o.traceOut != "" {
		args = append(args, "-trace-out", strings.TrimSuffix(o.traceOut, ".json")+"-"+w.Name+".json")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	text := strings.TrimRight(stdout.String(), "\n")
	cut := strings.LastIndexByte(text, '\n')
	var line resultLine
	if err := json.Unmarshal([]byte(text[cut+1:]), &line); err != nil {
		return nil, text, fmt.Errorf("%s: no result line (%v): %v", w.Name, runErr, err)
	}
	return &line, text[:cut+1], nil
}

// runAll runs every workload, untraced and then traced, and prints both
// tables. It reports false when any output check failed.
func runAll(o options) (bool, error) {
	fmt.Println(readHost())
	ok := true
	for _, w := range workloads {
		fmt.Printf("\n== %s: %s\n", w.Name, w.Why)
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			line, text, err := child(o, w, trace)
			if err != nil {
				return false, err
			}
			ok = ok && line.Correct
			fmt.Printf("-- trace=%d ops_attempted=%d ops_failed=%d correct=%t\n", trace, line.Attempted, line.Failed, line.Correct)
			for _, l := range strings.Split(text, "\n") {
				if strings.HasPrefix(l, "FAILED:") || strings.HasPrefix(l, "contended:") || strings.HasPrefix(l, "span ") {
					fmt.Println(l)
				}
			}
			for _, d := range defs {
				v := line.Metrics[d.Name]
				switch {
				case trace == 0:
					fmt.Printf("%-34s %16.6f %-8s (%s is better, bound %.0f%%)\n", d.Name, v.Value, d.Unit, d.Better, d.Bound*100)
				case v.Value != 0 || strings.HasPrefix(d.Name, "harness."):
					fmt.Printf("%-34s %16.6f %-8s moves: %s\n", d.Name, v.Value, d.Unit, d.Moves)
				}
			}
		}
	}
	if !ok {
		fmt.Println("\nFAILED: at least one output check failed")
	}
	return ok, nil
}
