// Package telemetry is the process-wide metrics layer: a dependency-free
// registry of counters, gauges and histograms (optionally labelled) rendered
// in the Prometheus/OpenMetrics text exposition format.
//
// The design splits cost between two paths:
//
//   - Registration (Registry.Counter, Vec.With, ...) takes locks and
//     allocates. It happens at setup time; callers keep the returned handle.
//   - Observation (Counter.Inc, Gauge.Set, Histogram.Observe) is the hot
//     path: a handful of atomic operations, no locks, no allocations. It is
//     safe to call from a simulation inner loop or from every HTTP request.
//
// Rendering (Registry.Render) walks the registry under its lock and emits a
// deterministic document: families sorted by name, series sorted by label
// values, floats formatted with strconv's shortest round-trip form. The
// output re-parses with Parse, which doubles as the exposition linter used
// by tests and the simd smoke check.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType classifies a family.
type MetricType string

// Family types, named as the exposition format spells them.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// DefBuckets is the default histogram bucket set (seconds), matching the
// conventional Prometheus defaults: fine resolution around fast requests,
// coarse toward multi-second outliers.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExponentialBuckets returns n bucket upper bounds starting at start and
// multiplying by factor: {start, start*factor, ...}.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExponentialBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Registry holds metric families. The zero value is not usable; create with
// NewRegistry. Default is the process-wide instance the binaries share.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// Default is the process-wide registry.
var Default = NewRegistry()

// NewRegistry creates an empty registry (tests and sidecars that must not
// share the process-wide one).
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric family with zero or more labelled series.
type family struct {
	name   string
	help   string
	typ    MetricType
	labels []string

	mu     sync.Mutex
	series map[string]*series // key: joined label values
	// counterFn/gaugeFn back callback families (read at render time).
	counterFn func() uint64
	gaugeFn   func() float64
	buckets   []float64 // histogram families only
}

// series is one label-value combination's metric instance.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	histogram   *Histogram
}

// register adds a family or returns the existing one after checking that the
// caller's declaration matches it. Conflicting re-registration is a
// programmer error and panics, like a duplicate flag name.
func (r *Registry) register(name, help string, typ MetricType, labels []string) *family {
	validateName(name)
	for _, l := range labels {
		validateLabel(l)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s%v, was %s%v",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ,
		labels: append([]string(nil), labels...),
		series: make(map[string]*series)}
	r.families[name] = f
	return f
}

// Counter registers (or finds) a counter family. Pass label names here and
// bind values with With; a family with no labels has exactly one series,
// reachable via With() with no arguments.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, TypeCounter, labels)}
}

// Gauge registers (or finds) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, TypeGauge, labels)}
}

// Histogram registers (or finds) a histogram family with the given bucket
// upper bounds (strictly increasing; +Inf is implicit). Nil buckets means
// DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			panic(fmt.Sprintf("telemetry: histogram %q buckets must increase strictly", name))
		}
	}
	f := r.register(name, help, TypeHistogram, labels)
	f.mu.Lock()
	if f.buckets == nil {
		f.buckets = append([]float64(nil), buckets...)
	}
	f.mu.Unlock()
	return &HistogramVec{fam: f}
}

// CounterFunc registers a counter family whose single unlabelled value is
// read from fn at render time — the bridge for subsystems that already keep
// their own cumulative counters (e.g. the result cache).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	f := r.register(name, help, TypeCounter, nil)
	f.mu.Lock()
	f.counterFn = fn
	f.mu.Unlock()
}

// GaugeFunc registers a gauge family whose single unlabelled value is read
// from fn at render time (queue depths, pool occupancy, boolean states).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, TypeGauge, nil)
	f.mu.Lock()
	f.gaugeFn = fn
	f.mu.Unlock()
}

// with returns the series for the given label values, creating it on first
// use. This is the registration path: it locks and may allocate, so hot
// paths call it once and keep the handle.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), values...)}
	switch f.typ {
	case TypeCounter:
		s.counter = &Counter{}
	case TypeGauge:
		s.gauge = &Gauge{}
	case TypeHistogram:
		s.histogram = newHistogram(f.buckets)
	}
	f.series[key] = s
	return s
}

// CounterVec is a counter family handle.
type CounterVec struct{ fam *family }

// With binds label values and returns the series' counter.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.fam.with(labelValues).counter
}

// GaugeVec is a gauge family handle.
type GaugeVec struct{ fam *family }

// With binds label values and returns the series' gauge.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.fam.with(labelValues).gauge
}

// HistogramVec is a histogram family handle.
type HistogramVec struct{ fam *family }

// With binds label values and returns the series' histogram.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.fam.with(labelValues).histogram
}

// Counter is a monotonically increasing event count. All methods are
// lock-free and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a point-in-time value that can go up and down. The float64 is
// stored as atomic bits, so Set is a single store.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt replaces the value with an integer.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram. Observe is lock-free:
// one atomic add on the owning bucket, one on the count, and a CAS fold into
// the sum. Bucket reads during concurrent writes are per-bucket atomic, so a
// render taken mid-write is a coherent near-instant view (the same guarantee
// a Prometheus client gives).
type Histogram struct {
	bounds []float64       // upper bounds, strictly increasing; +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	// Linear scan: bucket lists are short (~a dozen) and the branch pattern
	// is stable under real latency distributions, which beats binary search
	// at this size.
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func validateName(name string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	// The exposition format reserves these suffixes for the samples the
	// renderer itself appends; a family registered with one would collide.
	for _, suffix := range []string{"_total", "_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suffix) {
			panic(fmt.Sprintf("telemetry: metric name %q must not end in %s (added at render time)",
				name, suffix))
		}
	}
}

func validateLabel(name string) {
	if !validLabelName(name) {
		panic(fmt.Sprintf("telemetry: invalid label name %q", name))
	}
}

// validMetricName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		alpha := c == '_' || c == ':' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// validLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]* and is
// not a reserved __ name.
func validLabelName(name string) bool {
	if name == "" || strings.HasPrefix(name, "__") {
		return false
	}
	for i, c := range name {
		alpha := c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// snapshotFamilies returns the families sorted by name, for rendering.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
