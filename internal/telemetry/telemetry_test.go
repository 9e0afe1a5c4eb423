package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// render returns the exposition document r.Render writes.
func render(r *Registry) string {
	var b strings.Builder
	_ = r.Render(&b)
	return b.String()
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs", "jobs seen").With()
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("depth", "queue depth").With()
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Fatalf("gauge = %g, want 3.5", g.Value())
	}
	g.SetInt(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %g, want 7", g.Value())
	}
}

func TestVecLabelsSeparateSeries(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("hits", "hits by kind", "kind")
	v.With("a").Add(2)
	v.With("b").Inc()
	if v.With("a").Value() != 2 || v.With("b").Value() != 1 {
		t.Fatalf("series not separated: a=%d b=%d", v.With("a").Value(), v.With("b").Value())
	}
	// Same labels return the same handle.
	if v.With("a") != v.With("a") {
		t.Fatal("With returned distinct handles for identical labels")
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 2, 4}).With()
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 9} {
		h.Observe(v)
	}
	if h.count.Load() != 5 {
		t.Fatalf("count = %d, want 5", h.count.Load())
	}
	if h.Sum() != 15.5 {
		t.Fatalf("sum = %g, want 15.5", h.Sum())
	}
	// Each sample lands in the first bucket whose upper bound covers it,
	// the last past every bound: the counts the dashboard's quantile
	// estimate interpolates inside.
	for i, want := range []uint64{1, 2, 1, 1} {
		if got := h.counts[i].Load(); got != want {
			t.Fatalf("bucket %d holds %d samples, want %d", i, got, want)
		}
	}
}

func TestReRegisterReturnsSameFamily(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", "x", "k")
	b := r.Counter("x", "x", "k")
	a.With("v").Inc()
	if b.With("v").Value() != 1 {
		t.Fatal("re-registration did not return the same family")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-registration did not panic")
		}
	}()
	r.Gauge("x", "x") // different type must panic
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "2x", "a-b", "a b", "x_total", "x_bucket", "x_sum", "x_count"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metric name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
	for _, bad := range []string{"", "2x", "a-b", "__reserved"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("label name %q did not panic", bad)
				}
			}()
			r.Counter("ok_"+strings.Repeat("x", 1), "", bad)
		}()
	}
}

func TestCallbackFamilies(t *testing.T) {
	r := NewRegistry()
	n := uint64(41)
	r.CounterFunc("spills", "cache spills", func() uint64 { return n })
	r.GaugeFunc("busy", "busy workers", func() float64 { return 3 })
	n++
	text := render(r)
	for _, want := range []string{"spills_total 42", "busy 3"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
}

// TestRenderParseRoundTrip pins the satellite contract: every line the
// renderer emits re-parses, names and labels are valid, and the parsed
// values match the registry exactly.
func TestRenderParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_submitted", "total submissions").With().Add(17)
	fin := r.Counter("jobs_finished", "terminal transitions", "state", "type")
	fin.With("done", "sweep").Add(3)
	fin.With("failed", `we"ird\label
value`).Inc()
	r.Gauge("queue_depth", "jobs waiting").With().SetInt(5)
	r.Gauge("temperature", "negative and fractional").With().Set(-2.25)
	h := r.Histogram("job_latency_seconds", "latency", []float64{0.1, 1, 10}, "type")
	h.With("sweep").Observe(0.05)
	h.With("sweep").Observe(0.5)
	h.With("sweep").Observe(50)
	r.GaugeFunc("busy", "busy workers", func() float64 { return 2 })
	r.CounterFunc("evictions", "cache evictions", func() uint64 { return 9 })

	text := render(r)
	fams, err := Parse(text)
	if err != nil {
		t.Fatalf("rendered exposition does not re-parse: %v\n%s", err, text)
	}

	check := func(name string, labels map[string]string, want float64) {
		t.Helper()
		s := Find(fams, name, labels)
		if s == nil {
			t.Fatalf("sample %s%v missing:\n%s", name, labels, text)
		}
		if s.Value != want {
			t.Fatalf("sample %s%v = %g, want %g", name, labels, s.Value, want)
		}
	}
	check("jobs_submitted_total", nil, 17)
	check("jobs_finished_total", map[string]string{"state": "done", "type": "sweep"}, 3)
	check("jobs_finished_total", map[string]string{"state": "failed"}, 1)
	check("queue_depth", nil, 5)
	check("temperature", nil, -2.25)
	check("job_latency_seconds_bucket", map[string]string{"type": "sweep", "le": "0.1"}, 1)
	check("job_latency_seconds_bucket", map[string]string{"type": "sweep", "le": "+Inf"}, 3)
	check("job_latency_seconds_count", map[string]string{"type": "sweep"}, 3)
	check("job_latency_seconds_sum", map[string]string{"type": "sweep"}, 50.55)
	check("busy", nil, 2)
	check("evictions_total", nil, 9)

	// The escaped label value must round-trip exactly.
	s := Find(fams, "jobs_finished_total", map[string]string{"state": "failed"})
	if got := s.Label("type"); got != "we\"ird\\label\nvalue" {
		t.Fatalf("escaped label value round-trip = %q", got)
	}
}

func TestRenderDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		v := r.Counter("b_metric", "", "k")
		v.With("z").Inc()
		v.With("a").Inc()
		r.Gauge("a_metric", "").With().Set(1)
		return render(r)
	}
	if build() != build() {
		t.Fatal("identical registries rendered differently")
	}
	text := build()
	if strings.Index(text, "a_metric") > strings.Index(text, "b_metric") {
		t.Fatalf("families not sorted by name:\n%s", text)
	}
	if strings.Index(text, `k="a"`) > strings.Index(text, `k="z"`) {
		t.Fatalf("series not sorted by label values:\n%s", text)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no EOF":              "# TYPE x counter\nx_total 1\n",
		"sample before TYPE":  "x_total 1\n# EOF\n",
		"counter no _total":   "# TYPE x counter\nx 1\n# EOF\n",
		"bad name":            "# TYPE 2x counter\n2x_total 1\n# EOF\n",
		"bad value":           "# TYPE x counter\nx_total one\n# EOF\n",
		"unterminated label":  "# TYPE x gauge\nx{a=\"b 1\n# EOF\n",
		"bad escape":          "# TYPE x gauge\nx{a=\"\\q\"} 1\n# EOF\n",
		"content after EOF":   "# EOF\n# TYPE x gauge\nx 1\n",
		"no +Inf bucket":      "# TYPE x histogram\nx_bucket{le=\"1\"} 1\nx_sum 1\nx_count 1\n# EOF\n",
		"shrinking buckets":   "# TYPE x histogram\nx_bucket{le=\"1\"} 2\nx_bucket{le=\"+Inf\"} 1\nx_sum 1\nx_count 1\n# EOF\n",
		"NaN bucket count":    "# TYPE x histogram\nx_bucket{le=\"1\"} 5\nx_bucket{le=\"2\"} NaN\nx_bucket{le=\"+Inf\"} 1\nx_count 1\n# EOF\n",
		"NaN le":              "# TYPE x histogram\nx_bucket{le=\"NaN\"} 1\nx_bucket{le=\"1\"} 1\nx_bucket{le=\"+Inf\"} 1\nx_count 1\n# EOF\n",
		"two _count samples":  "# TYPE x histogram\nx_bucket{le=\"+Inf\"} 1\nx_count 5\nx_count 1\n# EOF\n",
		"series keys collide": "# TYPE x histogram\nx_bucket{a=\"1,b=2\",le=\"+Inf\"} 1\nx_count{a=\"1\",b=\"2\"} 1\n# EOF\n",
	}
	for name, doc := range cases {
		if _, err := Parse(doc); err == nil {
			t.Errorf("%s: Parse accepted malformed document:\n%s", name, doc)
		}
	}
}

// TestConcurrentHammer drives every metric type from many goroutines; run
// under -race (make race covers internal/...) it doubles as the registry's
// data-race proof, and the exact final counts prove no increments are lost.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer", "", "worker")
	g := r.Gauge("level", "").With()
	h := r.Histogram("obs", "", []float64{1, 10, 100}).With()
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w))
			own := c.With(lbl)
			for i := 0; i < perWorker; i++ {
				own.Inc()
				c.With("shared").Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 200))
				if i%64 == 0 {
					_ = render(r) // render concurrently with writes
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.With("shared").Value(); got != workers*perWorker {
		t.Fatalf("shared counter = %d, want %d", got, workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if got := c.With(string(rune('a' + w))).Value(); got != perWorker {
			t.Fatalf("worker %d counter = %d, want %d", w, got, perWorker)
		}
	}
	if h.count.Load() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.count.Load(), workers*perWorker)
	}
	if _, err := Parse(render(r)); err != nil {
		t.Fatalf("post-hammer render does not parse: %v", err)
	}
}

// TestHotPathAllocationFree pins the hot-path contract: once the handle is
// held, counter increments, gauge stores and histogram observations
// allocate nothing.
func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "", "k").With("v")
	g := r.Gauge("g", "").With()
	h := r.Histogram("h", "", nil).With()
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(3) }); n != 0 {
		t.Errorf("Gauge.Set allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.42) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f/op", n)
	}
}

func TestBucketConstructors(t *testing.T) {
	exp := ExponentialBuckets(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	for i := range want {
		if math.Abs(exp[i]-want[i]) > 1e-12 {
			t.Fatalf("ExponentialBuckets[%d] = %g, want %g", i, exp[i], want[i])
		}
	}
}
