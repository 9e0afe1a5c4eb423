package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"mlnoc/internal/stats"
)

// workload is one set of inputs the benchmark runs. All workloads are closed
// loop with one client: a simulator user, and a simd caller, waits for the
// reply before asking for more.
type workload struct {
	Name string
	// Why records the reason the workload was chosen (BENCHMARK.json "why").
	Why string
	// OpsPerWindow is the work of one window; every window does the same.
	OpsPerWindow int
	// WindowsPerSecond sizes a run: -seconds N does N*WindowsPerSecond
	// windows, so the amount of work is fixed by the flags and never by the
	// clock. The constants are each workload's wall speed on the reference
	// host (see README.md), so -seconds N measures for about N seconds there.
	WindowsPerSecond int
	// SetupReps is how many times the set-up is run from scratch for
	// setup_s (see measure).
	SetupReps int
	// GoldenEvery is the golden checkpoint period in windows. Zero means
	// every op must produce the same State (one golden line).
	GoldenEvery int
	// KernelKeyed marks workloads whose statistics pass through
	// nn.ForwardBatchFast: their goldens are keyed by the kernel in use.
	KernelKeyed bool
	// FixedInputs marks a workload whose Build ignores the seed (see
	// apu_infer); its golden is valid for every seed.
	FixedInputs bool
	// Build sets the workload up from scratch and warms it to steady state,
	// calling lap at the same points of the set-up every time (after the
	// build proper, then every few ms of warm-up). tr is nil for an untraced
	// instance.
	Build func(seed int64, tr *tracer, lap func()) (instance, error)
}

// instance is one set-up copy of a workload. Window is the only call the
// harness times; everything else runs between windows.
type instance interface {
	// Window does OpsPerWindow ops.
	Window()
	// Check verifies the outputs of the window just run and reports how many
	// of its ops failed, with the reason for the first.
	Check() (failed int, why string)
	// State renders the simulated statistics as of the last window; it must
	// be identical for two runs of one seed, traced or not. Empty when the
	// workload has no simulated state.
	State() string
	// Finish runs the end-of-run guards (steady state, conservation).
	Finish() error
	// Layers adds the per-layer metrics of a traced instance to m.
	Layers(m map[string]float64)
	Close()
}

// lapper is implemented by an instance whose windows are too long to be often
// undisturbed but are the same work lap for lap: the harness then estimates a
// window as the sum of its laps, each at its fastest over the run.
type lapper interface {
	// Laps returns the durations of the laps of the window just run; their
	// number never changes.
	Laps() []int64
}

// minWindows keeps the fastest-window estimator meaningful on short runs.
const minWindows = 400

// contendedStealPct marks a run whose numbers were taken on a host that was
// visibly taking the CPU away; the run is still reported.
const contendedStealPct = 10

var epoch = time.Now()

// now is the monotonic clock every timing in the benchmark uses.
func now() int64 { return int64(time.Since(epoch)) }

// report is the outcome of one run of one workload.
type report struct {
	Attempted int64
	Failed    int64
	Metrics   map[string]float64
	Failures  []string
	Contended bool
}

func (r *report) fail(format string, a ...any) {
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, a...))
	}
}

func (r *report) correct() bool { return r.Failed == 0 && len(r.Failures) == 0 }

// windowCount is the fixed amount of work of a run, in windows.
func (w *workload) windowCount(seconds int) int {
	n := seconds * w.WindowsPerSecond
	if n < minWindows {
		n = minWindows
	}
	if w.GoldenEvery > 0 {
		n -= n % w.GoldenEvery
	}
	return n
}

// fastest returns the mean of the k = max(10, n/500) smallest values: the
// time a window takes when nothing else has the core. On a shared host the
// slow tail of window times is other tenants' work, not the program's, and
// the fastest windows are the part that repeats best (README.md,
// "Estimator", has the measurements behind k and the window sizes).
func fastest(times []int64) float64 {
	s := append([]int64(nil), times...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := fastCount(len(s))
	var sum int64
	for _, v := range s[:k] {
		sum += v
	}
	return float64(sum) / float64(k)
}

// fastCount is how many of n windows count as the fastest.
func fastCount(n int) int {
	k := n / 500
	if k < 10 {
		k = 10
	}
	if k > n {
		k = n
	}
	return k
}

// checker applies the output checks of one instance window by window and
// keeps the per-window count of failed ops.
type checker struct {
	w      *workload
	rep    *report
	golden []string // committed states for this seed, nil when none
	first  string   // first op's state, the fallback for GoldenEvery == 0
	states []string // states seen at checkpoints (for -update-golden)
	failed []int
}

func newChecker(w *workload, rep *report, golden []string, windows int) *checker {
	return &checker{w: w, rep: rep, golden: golden, failed: make([]int, windows)}
}

func (c *checker) markFailed(from, to, ops int) {
	for i := from; i <= to; i++ {
		if c.failed[i] < ops {
			c.failed[i] = ops
		}
	}
}

// after runs the checks that follow window i of inst.
func (c *checker) after(i int, inst instance) {
	if n, why := inst.Check(); n > 0 {
		c.markFailed(i, i, n)
		c.rep.fail("window %d: %s", i, why)
	}
	ops := c.w.OpsPerWindow
	switch {
	case c.w.GoldenEvery == 0:
		st := inst.State()
		if st == "" {
			return
		}
		if i == 0 {
			c.first = st
			c.states = append(c.states, st)
		}
		want := c.first
		if len(c.golden) > 0 {
			want = c.golden[0]
		}
		if st != want {
			c.markFailed(i, i, ops)
			c.rep.fail("window %d: state %q, want %q", i, st, want)
		}
	case (i+1)%c.w.GoldenEvery == 0:
		st := inst.State()
		c.states = append(c.states, st)
		idx := (i+1)/c.w.GoldenEvery - 1
		if idx < len(c.golden) && c.golden[idx] != st {
			c.markFailed(i+1-c.w.GoldenEvery, i, ops)
			c.rep.fail("checkpoint %d (window %d): state %q, want golden %q", idx, i, st, c.golden[idx])
		}
	}
}

func (c *checker) total() int64 {
	var n int64
	for _, f := range c.failed {
		n += int64(f)
	}
	return n
}

// setUp builds the workload reps times from scratch and returns the last
// instance, the duration of every lap at its fastest repetition, and the
// TotalAlloc reading taken just before the last build. Earlier instances are
// closed and collected first so peak_rss_mb and alloc_kb_per_op describe one
// life of the workload.
func setUp(w *workload, seed int64, tr *tracer, reps int) (instance, []int64, uint64, error) {
	var inst instance
	var allocBefore uint64
	var best []int64
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.Close()
			inst = nil
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		allocBefore = ms.TotalAlloc
		var laps []int64
		last := now()
		lap := func() {
			t := now()
			laps = append(laps, t-last)
			last = t
		}
		var err error
		inst, err = w.Build(seed, tr, lap)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("set-up of %s: %w", w.Name, err)
		}
		lap()
		if best, err = fastestLaps(best, laps); err != nil {
			inst.Close()
			return nil, nil, 0, fmt.Errorf("set-up of %s: %w", w.Name, err)
		}
	}
	return inst, best, allocBefore, nil
}

// fastestLaps folds one more repetition's laps into the per-lap minima.
func fastestLaps(best, laps []int64) ([]int64, error) {
	if best == nil {
		return laps, nil
	}
	if len(laps) != len(best) {
		return nil, fmt.Errorf("%d laps, then %d: not the same work every time", len(best), len(laps))
	}
	for j, d := range laps {
		if d < best[j] {
			best[j] = d
		}
	}
	return best, nil
}

// measure runs one workload untraced and returns its end-to-end metrics (and
// the harness diagnostics, which are printed on every run but only exported
// with the per-layer set).
//
// setup_s: every repetition of the set-up does the same work between the same
// laps, so the set-up time is the sum over laps of the fastest repetition of
// that lap: the set-up with each few ms of it taken at its least disturbed.
// The fastest whole repetition would need the host quiet for a whole set-up
// at once, which on a shared host it rarely is. Half the repetitions run
// before the measured section and half after it, so that a noisy ten seconds
// cannot spoil them all.
func measure(w *workload, seed int64, seconds int, golden []string) (*report, []string, error) {
	rep := &report{Metrics: map[string]float64{}}
	steal0 := readCPUTimes()
	inst, laps, allocBefore, err := setUp(w, seed, nil, (w.SetupReps+1)/2)
	if err != nil {
		return nil, nil, err
	}

	windows := w.windowCount(seconds)
	times := make([]int64, windows)
	var lapTimes [][]int64 // by lap, then by window
	lp, _ := inst.(lapper)
	chk := newChecker(w, rep, golden, windows)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range times {
		t0 := now()
		inst.Window()
		times[i] = now() - t0
		chk.after(i, inst)
		if lp == nil {
			continue
		}
		laps := lp.Laps()
		if i == 0 {
			lapTimes = make([][]int64, len(laps))
		}
		if len(laps) != len(lapTimes) {
			return nil, nil, fmt.Errorf("%s: window %d took %d laps, window 0 took %d", w.Name, i, len(laps), len(lapTimes))
		}
		for j, d := range laps {
			lapTimes[j] = append(lapTimes[j], d)
		}
	}
	runtime.ReadMemStats(&ms1)
	if err := inst.Finish(); err != nil {
		rep.fail("%v", err)
	}
	windowNS := fastest(times)
	if lp != nil {
		windowNS = 0
		for _, lt := range lapTimes {
			windowNS += fastest(lt)
		}
	}
	peakRSS := peakRSSMB()
	inst.Close()
	if later := w.SetupReps / 2; later > 0 {
		again, laps2, _, err := setUp(w, seed, nil, later)
		if err != nil {
			return nil, nil, err
		}
		again.Close()
		if laps, err = fastestLaps(laps, laps2); err != nil {
			return nil, nil, fmt.Errorf("set-up of %s: %w", w.Name, err)
		}
	}
	var setupNS int64
	for _, d := range laps {
		setupNS += d
	}

	rep.Attempted = int64(windows) * int64(w.OpsPerWindow)
	rep.Failed = chk.total()
	good := float64(rep.Attempted-rep.Failed) / float64(rep.Attempted)
	m := rep.Metrics
	m["throughput"] = good * float64(w.OpsPerWindow) / windowNS * 1e9
	// One life of the workload: its last set-up plus the measured section.
	// Counting the set-up keeps the metric away from zero on the workloads
	// whose steady state allocates nothing, where a relative bound on the
	// measured section alone would gate on noise (README.md).
	m["alloc_kb_per_op"] = float64(ms1.TotalAlloc-allocBefore) / 1024 / float64(rep.Attempted)
	m["peak_rss_mb"] = peakRSS
	m["setup_s"] = float64(setupNS) / 1e9
	harnessMetrics(m, w, times, windowNS, &ms0, &ms1, steal0)
	rep.Contended = m["harness.steal_pct"] > contendedStealPct
	return rep, chk.states, nil
}

// measureTraced runs a quarter of the work on a traced instance and the same
// windows on an untraced reference instance, interleaved so both see the same
// host noise. The reference gives the tracing overhead, and its State must
// equal the traced instance's after every window: the decorators may not
// change what the program does.
func measureTraced(w *workload, seed int64, seconds int, golden []string, tr *tracer) (*report, error) {
	rep := &report{Metrics: map[string]float64{}}
	steal0 := readCPUTimes()
	ref, _, _, err := setUp(w, seed, nil, 1)
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	inst, _, _, err := setUp(w, seed, tr, 1)
	if err != nil {
		return nil, err
	}
	defer inst.Close()

	windows := w.windowCount(seconds) / 4
	if w.GoldenEvery > 0 {
		windows -= windows % w.GoldenEvery
	}
	times := make([]int64, windows)
	refTimes := make([]int64, windows)
	chk := newChecker(w, rep, golden, windows)
	refChk := newChecker(w, rep, golden, windows)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range times {
		root := tr.open(now())
		inst.Window()
		times[i] = tr.close(root, now())
		chk.after(i, inst)

		t0 := now()
		ref.Window()
		refTimes[i] = now() - t0
		refChk.after(i, ref)
		if a, b := ref.State(), inst.State(); a != b {
			chk.markFailed(i, i, w.OpsPerWindow)
			rep.fail("window %d: tracing changed the run: traced %q, untraced %q", i, b, a)
		}
	}
	runtime.ReadMemStats(&ms1)
	for _, in := range []instance{inst, ref} {
		if err := in.Finish(); err != nil {
			rep.fail("%v", err)
		}
	}

	rep.Attempted = 2 * int64(windows) * int64(w.OpsPerWindow)
	rep.Failed = chk.total() + refChk.total()
	m := rep.Metrics
	inst.Layers(m)
	harnessMetrics(m, w, times, fastest(times), &ms0, &ms1, steal0)
	m["harness.trace_overhead_pct"] = (fastest(times)/fastest(refTimes) - 1) * 100
	rep.Contended = m["harness.steal_pct"] > contendedStealPct
	return rep, nil
}

// harnessMetrics fills the diagnostics that say how trustworthy the run is.
// windowNS is the estimated time of an undisturbed window.
func harnessMetrics(m map[string]float64, w *workload, times []int64, windowNS float64, ms0, ms1 *runtime.MemStats, steal0 cpuTimes) {
	ops := float64(w.OpsPerWindow)
	opMS := make([]float64, len(times))
	var wall int64
	for i, t := range times {
		opMS[i] = float64(t) / ops / 1e6
		wall += t
	}
	m["harness.wall_throughput"] = float64(len(times)) * ops / float64(wall) * 1e9
	m["harness.contention_ratio"] = m["harness.wall_throughput"] / (ops / windowNS * 1e9)
	m["harness.op_p50_ms"] = stats.Percentile(opMS, 50)
	m["harness.op_p95_ms"] = stats.Percentile(opMS, 95)
	m["harness.windows"] = float64(len(times))
	m["harness.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["harness.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["harness.steal_pct"] = readCPUTimes().stealPctSince(steal0)
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in ticks.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var c cpuTimes
	for i, s := range f {
		if i == 0 {
			continue
		}
		v, _ := strconv.ParseUint(s, 10, 64)
		// user nice system idle iowait irq softirq steal; guest time is
		// already inside user.
		if i <= 8 {
			c.total += v
		}
		if i == 8 {
			c.steal = v
		}
	}
	return c
}

func (c cpuTimes) stealPctSince(c0 cpuTimes) float64 {
	if c.total <= c0.total {
		return 0
	}
	return float64(c.steal-c0.steal) / float64(c.total-c0.total) * 100
}

// peakRSSMB is VmHWM of this process: the most memory it ever held.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// hostInfo is the fingerprint printed with every run, so a number is never
// read without the machine it came from.
type hostInfo struct {
	CPUModel   string
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	GOARCH     string
	Kernel     string
	NNKernel   string
}

func readHost() hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Kernel:     "unknown",
		NNKernel:   nnKernel(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	return h
}

func (h hostInfo) String() string {
	return fmt.Sprintf("host: cpu=%q num_cpu=%d gomaxprocs=%d go=%s goarch=%s kernel=%s nn_kernel=%s",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOARCH, h.Kernel, h.NNKernel)
}

// totalAlloc is the cumulative bytes of heap objects allocated so far. It
// reads the runtime/metrics counter, which needs no stop-the-world and so can
// bracket every traced window.
func totalAlloc() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
