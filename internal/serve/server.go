package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mlnoc/internal/cliutil"
	"mlnoc/internal/noc"
	"mlnoc/internal/obs"
	"mlnoc/internal/telemetry"
)

// Config parameterizes a Server. The zero value is usable: every field has a
// sensible default.
type Config struct {
	// Workers bounds how many jobs run simultaneously (default NumCPU).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs; a full
	// queue rejects submissions with 503 (default 64).
	QueueDepth int
	// CacheEntries bounds the in-memory result cache, and the memo of
	// request bodies already parsed, to this many entries each (default 128).
	CacheEntries int
	// CacheDir, when non-empty, spills every result to <dir>/<hash>.spill and
	// serves cache misses from it.
	CacheDir string
	// Watchdog, when positive, attaches to every job's cells a
	// starvation/livelock watchdog with this threshold in cycles; its alerts
	// flip /readyz unready while the job runs.
	Watchdog int64
	// Runner overrides the job executor (tests). Nil means Execute.
	Runner runFunc
	// Logger receives the daemon's structured log stream (submissions, job
	// transitions, watchdog alerts), each record carrying the job's
	// correlation ID. Nil discards.
	Logger *slog.Logger
	// Registry receives the daemon's metrics. Nil means a private registry
	// (tests); simd passes telemetry.Default so sidecar registrations share
	// the exposition.
	Registry *telemetry.Registry
}

// Server is the simulation-as-a-service daemon core: the job registry, the
// worker pool, the result cache and the HTTP handlers. Create with New, serve
// Handler(), shut down with Drain (graceful) or Kill (hard).
type Server struct {
	cfg      Config
	q        *queue
	pool     *pool
	cache    *cache
	memo     *specMemo
	met      *metrics
	log      *slog.Logger
	draining atomic.Bool

	// The registry holds the jobs a client can still ask about: every queued
	// or running one (live), and the retainedJobs that reached a terminal
	// state last (recent, a ring whose oldest entry the next one overwrites).
	// jobs indexes both by ID; an evicted ID answers like an unknown one.
	mu      sync.Mutex
	jobs    map[string]*Job
	live    map[string]*Job
	recent  [retainedJobs]*Job
	retired int // terminal jobs so far; recent[retired%retainedJobs] is the next slot
	nextID  int
}

// retainedJobs is how many terminal jobs stay addressable. A daemon answering
// cache hits mints a job per submission, so the registry must not keep them
// all; a client polls a job it has just submitted, not one from a thousand
// completions ago.
const retainedJobs = 1024

// New builds a Server and starts its workers.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 128
	}
	if cfg.Logger == nil {
		cfg.Logger = cliutil.Discard()
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	s := &Server{
		cfg:   cfg,
		q:     newQueue(cfg.QueueDepth),
		cache: newCache(cfg.CacheEntries, cfg.CacheDir),
		memo:  newSpecMemo(cfg.CacheEntries),
		met:   newMetrics(cfg.Registry),
		log:   cfg.Logger,
		jobs:  make(map[string]*Job),
		live:  make(map[string]*Job),
	}
	s.registerLiveMetrics(cfg.Registry)
	run := cfg.Runner
	if run == nil {
		run = s.runJob
	}
	// Cache successful payloads before the pool finalizes the job: a client
	// that polls a job to done and instantly resubmits must hit the cache.
	cached := func(ctx context.Context, job *Job) ([]byte, error) {
		payload, err := run(ctx, job)
		if err == nil && ctx.Err() == nil {
			s.cache.Put(job.Hash, payload)
		}
		return payload, err
	}
	s.pool = startPool(s.q, cfg.Workers, cached, s.jobDone)
	return s
}

// registerLiveMetrics binds the daemon's point-in-time signals as callback
// families: a scrape reads the queue, pool and cache directly instead of
// relying on pushed gauge updates that could go stale.
func (s *Server) registerLiveMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("mlnoc_queue_depth", "jobs queued but not yet claimed by a worker",
		func() float64 { return float64(s.q.Len()) })
	reg.GaugeFunc("mlnoc_pool_busy", "workers executing a job right now",
		func() float64 { return float64(s.pool.Busy()) })
	reg.GaugeFunc("mlnoc_pool_workers", "configured worker-pool size",
		func() float64 { return float64(s.cfg.Workers) })
	reg.GaugeFunc("mlnoc_draining", "1 while graceful shutdown is in progress",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("mlnoc_cache_entries", "result-cache entries resident in memory",
		func() float64 { _, _, n := s.cache.Stats(); return float64(n) })
	reg.CounterFunc("mlnoc_cache_hits", "result-cache hits (memory or spill dir)",
		func() uint64 { h, _, _, _, _ := s.cache.Counters(); return uint64(h) })
	reg.CounterFunc("mlnoc_cache_misses", "result-cache misses",
		func() uint64 { _, m, _, _, _ := s.cache.Counters(); return uint64(m) })
	reg.CounterFunc("mlnoc_cache_evictions", "result-cache in-memory LRU evictions",
		func() uint64 { _, _, e, _, _ := s.cache.Counters(); return uint64(e) })
	reg.CounterFunc("mlnoc_cache_spills", "result payloads written through to the spill directory",
		func() uint64 { _, _, _, sp, _ := s.cache.Counters(); return uint64(sp) })
	reg.CounterFunc("mlnoc_cache_spill_rejects", "spill files removed for failing their length or checksum",
		func() uint64 { _, _, _, _, r := s.cache.Counters(); return uint64(r) })
}

// runJob is the production runFunc: it attaches the job's live telemetry
// (an obs suite per cell, with the watchdog Config asks for) and executes the
// spec. Each finished cell streams its snapshot summary and the progress.
func (s *Server) runJob(ctx context.Context, job *Job) ([]byte, error) {
	s.log.Info("job started", "corr_id", job.CorrID, "id", job.ID, "type", job.Spec.Type)
	var wd *obs.WatchdogConfig
	if s.cfg.Watchdog > 0 {
		wd = &obs.WatchdogConfig{Threshold: s.cfg.Watchdog, OnAlert: func(a obs.Alert) {
			s.met.watchdogAlert(a.Kind)
			s.log.Warn("watchdog alert", "corr_id", job.CorrID, "id", job.ID,
				"kind", string(a.Kind), "alert", a.String())
			job.addAlert(a.String())
		}}
	}
	cell := func(label string, net *noc.Network) func(int, int) {
		suite := obs.Attach(net, obs.SuiteConfig{SampleEvery: 16, Watchdog: wd})
		return func(done, total int) {
			snap := suite.Snapshot()
			job.publish(Event{Kind: "snapshot", Data: snapshotSummary{
				Cell:       label,
				Cycle:      snap.Cycle,
				Injected:   snap.Injected,
				Delivered:  snap.Delivered,
				InFlight:   snap.InFlight,
				LatencyP50: snap.LatencyP50,
				LatencyP99: snap.LatencyP99,
				Alerts:     len(snap.Alerts),
			}})
			job.setProgress(done, total, label)
		}
	}
	return Execute(ctx, job.Spec, cell)
}

// snapshotSummary is the compact per-cell obs view sent on job streams, a
// progress feed: the full snapshot is not kept.
type snapshotSummary struct {
	Cell       string  `json:"cell"`
	Cycle      int64   `json:"cycle"`
	Injected   int64   `json:"injected"`
	Delivered  int64   `json:"delivered"`
	InFlight   int64   `json:"in_flight"`
	LatencyP50 float64 `json:"latency_p50,omitempty"`
	LatencyP99 float64 `json:"latency_p99,omitempty"`
	Alerts     int     `json:"alerts,omitempty"`
}

// jobDone is the pool's completion hook: it records terminal metrics and the
// correlated completion log line.
func (s *Server) jobDone(job *Job) {
	st := job.State()
	elapsed := job.elapsed()
	s.met.jobFinished(job.Spec.Type, st, elapsed)
	rec := s.log.Info
	if st == StateFailed {
		rec = s.log.Error
	}
	rec("job finished", "corr_id", job.CorrID, "id", job.ID, "type", job.Spec.Type,
		"state", string(st), "elapsed", elapsed.Round(time.Millisecond).String())
	s.retire(job)
}

// elapsed is the job's execution time (zero until it finished).
func (j *Job) elapsed() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() || j.finished.IsZero() {
		return 0
	}
	return j.finished.Sub(j.started)
}

// Drain is graceful shutdown: stop accepting jobs, cancel everything still
// queued, and wait for running jobs to finish.
func (s *Server) Drain() {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	s.finalizeQueued(s.pool.Drain())
}

// Kill is hard shutdown: like Drain but running jobs' contexts are cancelled
// instead of waited out.
func (s *Server) Kill() {
	if !s.draining.CompareAndSwap(false, true) {
		s.pool.cancel()
		return
	}
	s.finalizeQueued(s.pool.Kill())
}

func (s *Server) finalizeQueued(jobs []*Job) {
	now := time.Now()
	for _, j := range jobs {
		j.finish(StateCancelled, nil, "daemon draining", now)
		s.met.jobFinished(j.Spec.Type, StateCancelled, 0)
		s.retire(j)
	}
}

// register mints an ID and adds the job to the registry as a live one. An
// empty corrID is defaulted to "<id>-<hash prefix>", so every job is
// correlatable even when the client sent no X-Correlation-ID.
func (s *Server) register(spec *Spec, hash, corrID string, now time.Time) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	job := newJob(s.nextID, hash, spec, now)
	if corrID == "" {
		corrID = job.ID + "-" + job.Hash[:8]
	}
	job.CorrID = corrID
	s.jobs[job.ID] = job
	s.live[job.ID] = job
	return job
}

// retire moves a job that has reached a terminal state from the live set into
// the ring of recent ones, evicting the ring's oldest. Every path that ends a
// job calls it; a second call for the same job does nothing.
func (s *Server) retire(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.live[job.ID]; !ok {
		return
	}
	delete(s.live, job.ID)
	slot := &s.recent[s.retired%retainedJobs]
	if *slot != nil {
		delete(s.jobs, (*slot).ID)
	}
	*slot = job
	s.retired++
}

// lookup returns the job with the given ID, nil when there is none or it has
// been evicted.
func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// snapshotJobs returns the retained jobs, or only the live ones, in
// submission order.
func (s *Server) snapshotJobs(liveOnly bool) []*Job {
	s.mu.Lock()
	set := s.jobs
	if liveOnly {
		set = s.live
	}
	out := make([]*Job, 0, len(set))
	for _, j := range set {
		out = append(out, j)
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b *Job) int { return a.seq - b.seq })
	return out
}

// SubmitCorr runs the full submission flow for a validated spec and its
// Hash: cache lookup, then enqueue, under the caller's correlation ID (""
// mints one). The error is non-nil only when the daemon cannot accept the job
// (draining or queue full).
func (s *Server) SubmitCorr(spec *Spec, hash, corrID string) (*Job, error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	now := time.Now()
	s.met.jobSubmitted()
	if payload, ok := s.cache.Get(hash); ok {
		job := s.register(spec, hash, corrID, now)
		job.completeCached(payload, now)
		s.retire(job)
		s.met.jobFinished(spec.Type, StateDone, 0)
		s.log.Info("job served from cache", "corr_id", job.CorrID, "id", job.ID,
			"type", spec.Type, "hash", hash)
		return job, nil
	}
	job := s.register(spec, hash, corrID, now)
	if !s.q.Push(job) {
		job.finish(StateFailed, nil, "queue full", now)
		s.retire(job)
		s.met.jobFinished(spec.Type, StateFailed, 0)
		s.log.Warn("job rejected, queue full", "corr_id", job.CorrID, "id", job.ID, "type", spec.Type)
		return nil, errQueueFull
	}
	s.log.Info("job queued", "corr_id", job.CorrID, "id", job.ID, "type", spec.Type, "hash", hash)
	return job, nil
}

var (
	errDraining  = fmt.Errorf("daemon is draining, not accepting jobs")
	errQueueFull = fmt.Errorf("job queue is full")
)

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.route("submit", s.handleSubmit))
	mux.HandleFunc("GET /jobs", s.route("list", s.handleList))
	mux.HandleFunc("GET /jobs/{id}", s.route("status", s.handleStatus))
	mux.HandleFunc("GET /jobs/{id}/result", s.route("result", s.handleResult))
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream) // long-lived; not latency-tracked
	mux.HandleFunc("POST /jobs/{id}/cancel", s.route("cancel", s.handleCancel))
	mux.HandleFunc("GET /healthz", s.route("healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.route("readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.route("metrics", s.handleMetrics))
	mux.HandleFunc("GET /dashboard", s.route("dashboard", s.handleDashboard))
	return mux
}

// route wraps a handler with per-route latency tracking. The route's series
// is looked up once, on its first request, so /metrics lists the routes
// served so far.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	lat := sync.OnceValue(func() *telemetry.Histogram { return s.met.httpLat.With(name) })
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		lat().Observe(time.Since(start).Seconds())
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// maxSpecBytes caps a submitted spec's body.
const maxSpecBytes = 1 << 20

// readBody reads a request body of at most maxSpecBytes, into a buffer of its
// Content-Length when it declares one (net/http holds a body to it).
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxSpecBytes)
	if n := r.ContentLength; n >= 0 && n <= maxSpecBytes {
		buf := make([]byte, n)
		_, err := io.ReadFull(body, buf)
		return buf, err
	}
	return io.ReadAll(body)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	spec, hash, err := s.memo.parse(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	job, err := s.SubmitCorr(spec, hash, r.Header.Get("X-Correlation-ID"))
	switch {
	case err != nil:
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case job.Cached():
		writeJSON(w, http.StatusOK, job.Status())
	default:
		writeJSON(w, http.StatusAccepted, job.Status())
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.snapshotJobs(false)
	docs := make([]StatusDoc, len(jobs))
	for i, j := range jobs {
		docs[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, docs)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	payload, done := job.Result()
	if !done {
		switch st := job.Status(); st.State {
		case StateFailed:
			writeError(w, http.StatusInternalServerError, st.Error)
			return
		case StateDone: // it finished since Result
			payload, _ = job.Result()
		default:
			writeError(w, http.StatusConflict, fmt.Sprintf("job is %s, not done", st.State))
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	was := job.State()
	job.Cancel(time.Now())
	if was == StateQueued && job.State() == StateCancelled {
		s.met.jobFinished(job.Spec.Type, StateCancelled, 0)
		s.retire(job)
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// handleStream serves the job's live event feed as server-sent events: one
// "status" replay on connect, then progress / snapshot / alert / status
// events until the job reaches a terminal state or the client disconnects.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	// Subscribe before flushing headers: once the client sees a 200 it must
	// not be able to miss events published from that point on.
	events, unsubscribe := job.Subscribe()
	defer unsubscribe()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		select {
		case ev, open := <-events:
			if !open {
				return
			}
			data, err := json.Marshal(ev.Data)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, data)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz maps daemon state onto readiness: draining, a saturated
// queue, or a running job whose watchdog has raised alerts (starvation or
// livelock in flight) all report unready.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if s.q.Len() >= s.cfg.QueueDepth {
		writeError(w, http.StatusServiceUnavailable, "queue full")
		return
	}
	for _, j := range s.snapshotJobs(true) {
		if j.State() != StateRunning {
			continue
		}
		if alerts := j.Alerts(); len(alerts) > 0 {
			writeError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("job %s watchdog: %s", j.ID, alerts[len(alerts)-1]))
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleMetrics serves the telemetry registry's exposition document. The
// callback families registered in New read queue/pool/cache state at render
// time, so no gauge refresh happens here.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	w.WriteHeader(http.StatusOK)
	_ = s.cfg.Registry.Render(w)
}
