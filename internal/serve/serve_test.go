package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlnoc/internal/telemetry"
)

const specQuant = `{"type":"quant"}`

// postJob submits a spec and returns the response status code and decoded
// status document.
func postJob(t *testing.T, h http.Handler, spec string) (int, StatusDoc) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", strings.NewReader(spec)))
	var doc StatusDoc
	if rec.Code == http.StatusOK || rec.Code == http.StatusAccepted {
		if err := json.NewDecoder(rec.Body).Decode(&doc); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return rec.Code, doc
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, job *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if job.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", job.ID, job.State(), want)
}

// countingRunner returns a deterministic payload derived from the spec and
// counts invocations.
func countingRunner(runs *atomic.Int64) runFunc {
	return func(_ context.Context, job *Job) ([]byte, error) {
		runs.Add(1)
		return json.Marshal(map[string]any{"hash": job.Hash, "seed": job.Spec.EffectiveSeed()})
	}
}

// blockingRunner blocks each job until release is closed (or its context is
// cancelled), recording execution order.
type blockingRunner struct {
	mu      sync.Mutex
	order   []string
	started chan string
	release chan struct{}
}

func newBlockingRunner() *blockingRunner {
	return &blockingRunner{started: make(chan string, 64), release: make(chan struct{})}
}

func (b *blockingRunner) run(ctx context.Context, job *Job) ([]byte, error) {
	b.mu.Lock()
	b.order = append(b.order, job.ID)
	b.mu.Unlock()
	b.started <- job.ID
	select {
	case <-b.release:
		return []byte(`{"ok":true}`), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (b *blockingRunner) ran() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.order...)
}

// The tentpole cache property: submitting the same deterministic job twice
// returns the second instantly from cache, with a byte-identical payload.
func TestCacheHitByteIdentical(t *testing.T) {
	var runs atomic.Int64
	s := New(Config{Workers: 1, Runner: countingRunner(&runs)})
	defer s.Drain()
	h := s.Handler()

	code, doc := postJob(t, h, specQuant)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: code %d, want 202", code)
	}
	if doc.Cached {
		t.Fatal("first submit claims cached")
	}
	waitState(t, s.lookup(doc.ID), StateDone)
	first := get(h, "/jobs/"+doc.ID+"/result")

	code2, doc2 := postJob(t, h, specQuant)
	if code2 != http.StatusOK {
		t.Fatalf("second submit: code %d, want 200 (cached)", code2)
	}
	if !doc2.Cached {
		t.Fatal("second submit of identical job was not served from cache")
	}
	if doc2.Hash != doc.Hash {
		t.Fatalf("hash mismatch: %s vs %s", doc2.Hash, doc.Hash)
	}
	second := get(h, "/jobs/"+doc2.ID+"/result")
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("cached payload not byte-identical:\n%s\n%s", first.Body, second.Body)
	}
	if runs.Load() != 1 {
		t.Fatalf("runner invoked %d times, want 1", runs.Load())
	}
}

// The registry is bounded: a daemon answering cache hits keeps its queued and
// running jobs plus the latest retainedJobs terminal ones, however many it has
// minted. An evicted ID answers 404 like an unknown one; a running job is
// never evicted.
func TestRegistryBounded(t *testing.T) {
	br := newBlockingRunner()
	s := New(Config{Workers: 2, Runner: func(ctx context.Context, job *Job) ([]byte, error) {
		if job.Spec.Seed == 99 {
			return br.run(ctx, job)
		}
		return []byte(`{"ok":true}`), nil
	}})
	h := s.Handler()

	_, first := postJob(t, h, specQuant)
	waitState(t, s.lookup(first.ID), StateDone)
	_, running := postJob(t, h, `{"type":"quant","seed":99}`)
	<-br.started

	const submissions = 5000
	var last StatusDoc
	for i := 0; i < submissions; i++ {
		code, doc := postJob(t, h, specQuant)
		if code != http.StatusOK || !doc.Cached {
			t.Fatalf("submission %d: code %d cached %v, want a cache hit", i, code, doc.Cached)
		}
		last = doc
	}
	s.mu.Lock()
	retained, live := len(s.jobs), len(s.live)
	s.mu.Unlock()
	if live != 1 || retained != retainedJobs+1 {
		t.Fatalf("registry holds %d jobs, %d live; want %d and 1 (the running job)", retained, live, retainedJobs+1)
	}
	if j := s.lookup(running.ID); j == nil || j.State() != StateRunning {
		t.Fatalf("running job %s was evicted or is not running: %v", running.ID, j)
	}
	newest := s.lookup(last.ID).seq
	for seq := newest; seq > newest-retainedJobs; seq-- {
		if rec := get(h, fmt.Sprintf("/jobs/j%06d/result", seq)); rec.Code != http.StatusOK {
			t.Fatalf("result of recent job %d: code %d, want 200", seq, rec.Code)
		}
	}
	for _, id := range []string{first.ID, fmt.Sprintf("j%06d", newest-retainedJobs)} {
		if rec := get(h, "/jobs/"+id); rec.Code != http.StatusNotFound {
			t.Fatalf("evicted job %s: code %d, want 404", id, rec.Code)
		}
	}
	var docs []StatusDoc
	if err := json.NewDecoder(get(h, "/jobs").Body).Decode(&docs); err != nil {
		t.Fatalf("decode /jobs: %v", err)
	}
	if len(docs) != retainedJobs+1 || docs[0].ID != running.ID || docs[len(docs)-1].ID != last.ID {
		t.Fatalf("/jobs lists %d jobs from %s to %s; want %d from %s (the oldest retained, still running) to %s",
			len(docs), docs[0].ID, docs[len(docs)-1].ID, retainedJobs+1, running.ID, last.ID)
	}
	for i := 1; i < len(docs); i++ {
		if docs[i-1].ID >= docs[i].ID {
			t.Fatalf("/jobs out of submission order at %d: %s then %s", i, docs[i-1].ID, docs[i].ID)
		}
	}

	close(br.release)
	waitState(t, s.lookup(running.ID), StateDone)
	s.Drain()
	if s.lookup(running.ID) == nil {
		t.Fatal("the job that finished last is not among the recent ones")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) != retainedJobs || len(s.live) != 0 {
		t.Fatalf("after the last job finished the registry holds %d jobs, %d live; want %d and 0", len(s.jobs), len(s.live), retainedJobs)
	}
}

// A different seed is a different job: it must re-execute, not hit the cache.
func TestDifferentSeedReexecutes(t *testing.T) {
	var runs atomic.Int64
	s := New(Config{Workers: 1, Runner: countingRunner(&runs)})
	defer s.Drain()
	h := s.Handler()

	_, doc1 := postJob(t, h, `{"type":"quant","seed":1}`)
	waitState(t, s.lookup(doc1.ID), StateDone)
	code, doc2 := postJob(t, h, `{"type":"quant","seed":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("different-seed submit: code %d, want 202 (fresh run)", code)
	}
	if doc2.Cached {
		t.Fatal("different seed was served from cache")
	}
	waitState(t, s.lookup(doc2.ID), StateDone)
	if runs.Load() != 2 {
		t.Fatalf("runner invoked %d times, want 2", runs.Load())
	}
	if doc1.Hash == doc2.Hash {
		t.Fatal("different seeds produced the same hash")
	}
}

// With N workers, at most N jobs run simultaneously regardless of the number
// submitted.
func TestConcurrencyBoundedByWorkers(t *testing.T) {
	const workers = 2
	br := newBlockingRunner()
	s := New(Config{Workers: workers, QueueDepth: 16, Runner: br.run})
	h := s.Handler()

	var docs []StatusDoc
	for seed := 1; seed <= 5; seed++ {
		code, doc := postJob(t, h, fmt.Sprintf(`{"type":"quant","seed":%d}`, seed))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d", seed, code)
		}
		docs = append(docs, doc)
	}
	// Exactly `workers` jobs start; the rest stay queued.
	for i := 0; i < workers; i++ {
		<-br.started
	}
	// Give a third job every chance to (incorrectly) start.
	time.Sleep(50 * time.Millisecond)
	if busy := s.pool.Busy(); busy != workers {
		t.Fatalf("%d jobs running, want exactly %d", busy, workers)
	}
	select {
	case id := <-br.started:
		t.Fatalf("job %s started beyond the worker bound", id)
	default:
	}
	close(br.release)
	for _, d := range docs {
		waitState(t, s.lookup(d.ID), StateDone)
	}
	s.Drain()
}

// Higher-priority jobs jump the queue; equal priorities stay FIFO.
func TestPriorityOrdering(t *testing.T) {
	br := newBlockingRunner()
	s := New(Config{Workers: 1, QueueDepth: 16, Runner: br.run})
	h := s.Handler()

	_, gate := postJob(t, h, `{"type":"quant","seed":10}`) // occupies the worker
	<-br.started
	_, low1 := postJob(t, h, `{"type":"quant","seed":11}`)
	_, low2 := postJob(t, h, `{"type":"quant","seed":12}`)
	_, high := postJob(t, h, `{"type":"quant","seed":13,"priority":5}`)
	close(br.release)
	for _, d := range []StatusDoc{gate, low1, low2, high} {
		waitState(t, s.lookup(d.ID), StateDone)
	}
	want := []string{gate.ID, high.ID, low1.ID, low2.ID}
	got := br.ran()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want %v", got, want)
	}
	s.Drain()
}

// Drain finishes running jobs, cancels queued ones, and rejects new
// submissions with 503.
func TestDrainGraceful(t *testing.T) {
	br := newBlockingRunner()
	s := New(Config{Workers: 1, QueueDepth: 16, Runner: br.run})
	h := s.Handler()

	_, running := postJob(t, h, `{"type":"quant","seed":1}`)
	<-br.started
	_, queued := postJob(t, h, `{"type":"quant","seed":2}`)

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	// Draining flips immediately; new submissions bounce even while the
	// running job is still going.
	deadline := time.Now().Add(2 * time.Second)
	for !s.draining.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if code, _ := postJob(t, h, `{"type":"quant","seed":3}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: code %d, want 503", code)
	}
	if rec := get(h, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: code %d, want 503", rec.Code)
	}
	close(br.release)
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after the running job finished")
	}
	if st := s.lookup(running.ID).State(); st != StateDone {
		t.Errorf("running job ended %s, want done (drain must not kill it)", st)
	}
	if st := s.lookup(queued.ID).State(); st != StateCancelled {
		t.Errorf("queued job ended %s, want cancelled", st)
	}
}

// A full queue rejects submissions instead of growing without bound.
func TestQueueFullRejects(t *testing.T) {
	br := newBlockingRunner()
	s := New(Config{Workers: 1, QueueDepth: 1, Runner: br.run})
	h := s.Handler()

	postJob(t, h, `{"type":"quant","seed":1}`) // running
	<-br.started
	postJob(t, h, `{"type":"quant","seed":2}`) // queued (fills the queue)
	code, _ := postJob(t, h, `{"type":"quant","seed":3}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit to full queue: code %d, want 503", code)
	}
	close(br.release)
	s.Drain()
}

// Cancelling a queued job finalizes it without ever running it.
func TestCancelQueuedJob(t *testing.T) {
	br := newBlockingRunner()
	s := New(Config{Workers: 1, QueueDepth: 16, Runner: br.run})
	h := s.Handler()

	_, running := postJob(t, h, `{"type":"quant","seed":1}`)
	<-br.started
	_, queued := postJob(t, h, `{"type":"quant","seed":2}`)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs/"+queued.ID+"/cancel", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel: code %d", rec.Code)
	}
	if st := s.lookup(queued.ID).State(); st != StateCancelled {
		t.Fatalf("cancelled queued job is %s", st)
	}
	close(br.release)
	waitState(t, s.lookup(running.ID), StateDone)
	for _, id := range br.ran() {
		if id == queued.ID {
			t.Fatal("cancelled job was executed anyway")
		}
	}
	s.Drain()
}

// Cancelling a running job cancels its context; the pool finalizes it as
// cancelled, not failed.
func TestCancelRunningJob(t *testing.T) {
	br := newBlockingRunner()
	s := New(Config{Workers: 1, Runner: br.run})
	h := s.Handler()

	_, doc := postJob(t, h, specQuant)
	<-br.started
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs/"+doc.ID+"/cancel", nil))
	waitState(t, s.lookup(doc.ID), StateCancelled)
	s.Drain()
}

// A panicking job becomes a failed job with the panic in its error; the
// daemon survives.
func TestJobPanicCaptured(t *testing.T) {
	s := New(Config{Workers: 1, Runner: func(context.Context, *Job) ([]byte, error) {
		panic("router exploded")
	}})
	defer s.Drain()
	h := s.Handler()

	_, doc := postJob(t, h, specQuant)
	waitState(t, s.lookup(doc.ID), StateFailed)
	st := s.lookup(doc.ID).Status()
	if !strings.Contains(st.Error, "router exploded") {
		t.Fatalf("panic not captured in job error: %q", st.Error)
	}
	rec := get(h, "/jobs/"+doc.ID+"/result")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("result of failed job: code %d, want 500", rec.Code)
	}
	// The daemon still serves.
	if rec := get(h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz after panic: code %d", rec.Code)
	}
}

// /readyz flips unhealthy while a running job has watchdog alerts and
// recovers once the job finishes. The job keeps its first 64 alerts and
// counts the rest: a starving sweep raises hundreds of thousands, and every
// status document, listing and readiness probe copies the list.
func TestReadyzFlipsOnWatchdogAlert(t *testing.T) {
	const raised = 1000
	br := newBlockingRunner()
	s := New(Config{Workers: 1, Runner: func(ctx context.Context, job *Job) ([]byte, error) {
		for i := range raised {
			job.addAlert(fmt.Sprintf("cycle %d: livelock: no deliveries for 512 cycles with 9 messages in flight", i))
		}
		return br.run(ctx, job)
	}})
	h := s.Handler()

	if rec := get(h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz idle: code %d, want 200", rec.Code)
	}
	_, doc := postJob(t, h, specQuant)
	<-br.started
	var st StatusDoc
	if err := json.Unmarshal(get(h, "/jobs/"+doc.ID).Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Alerts) != 64 || !strings.HasPrefix(st.Alerts[63], "cycle 63:") || st.SuppressedAlerts != raised-64 {
		t.Fatalf("status keeps %d alerts and counts %d more; want the first 64 and %d more",
			len(st.Alerts), st.SuppressedAlerts, raised-64)
	}
	rec := get(h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with alerting job: code %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "livelock") {
		t.Fatalf("/readyz body does not name the alert: %s", rec.Body)
	}
	close(br.release)
	waitState(t, s.lookup(doc.ID), StateDone)
	if rec := get(h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz after job finished: code %d, want 200", rec.Code)
	}
	s.Drain()
}

// The SSE stream carries the status replay, progress events, and the
// terminal status, then ends.
func TestStreamEvents(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{Workers: 1, Runner: func(_ context.Context, job *Job) ([]byte, error) {
		<-release
		job.setProgress(1, 2, "cell-a")
		job.setProgress(2, 2, "cell-b")
		return []byte(`{}`), nil
	}})
	defer s.Drain()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	_, doc := postJob(t, s.Handler(), specQuant)
	resp, err := http.Get(srv.URL + "/jobs/" + doc.ID + "/stream")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	close(release)

	kinds := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			kinds[name]++
		}
	}
	if kinds["status"] < 2 { // replay on connect + terminal transition
		t.Errorf("saw %d status events, want >= 2", kinds["status"])
	}
	if kinds["progress"] != 2 {
		t.Errorf("saw %d progress events, want 2", kinds["progress"])
	}
}

// /metrics exposes the counters TestEndToEndTinySweep checks.
func TestMetricsRender(t *testing.T) {
	var runs atomic.Int64
	s := New(Config{Workers: 1, Runner: countingRunner(&runs)})
	defer s.Drain()
	h := s.Handler()

	_, doc := postJob(t, h, specQuant)
	waitState(t, s.lookup(doc.ID), StateDone)
	postJob(t, h, specQuant) // cache hit

	body := get(h, "/metrics").Body.String()
	for _, want := range []string{
		"mlnoc_jobs_submitted_total 2",
		`mlnoc_jobs_finished_total{state="done",type="quant"} 2`,
		"mlnoc_cache_hits_total 1", "mlnoc_cache_misses_total 1",
		"mlnoc_cache_evictions_total 0", "mlnoc_cache_spills_total 0",
		"mlnoc_pool_workers 1", "mlnoc_draining 0",
		`mlnoc_job_latency_seconds_count{type="quant"} 1`,
		`mlnoc_http_request_duration_seconds_count{route="submit"} 2`,
		`mlnoc_watchdog_alerts_total{kind="starvation"} 0`,
		`mlnoc_watchdog_alerts_total{kind="livelock"} 0`,
		`mlnoc_watchdog_alerts_total{kind="fault-blackhole"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// The document must be valid exposition text per the strict parser.
	if _, err := telemetry.Parse(body); err != nil {
		t.Errorf("/metrics does not parse: %v", err)
	}
}

// TestDashboardServed pins that the dashboard is a self-contained HTML
// document referencing the live endpoints it polls.
func TestDashboardServed(t *testing.T) {
	var runs atomic.Int64
	s := New(Config{Workers: 1, Runner: countingRunner(&runs)})
	defer s.Drain()
	rec := get(s.Handler(), "/dashboard")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /dashboard = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("dashboard Content-Type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{"<!DOCTYPE html>", "mlnoc_queue_depth", "EventSource"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
}

// TestCorrelationID pins the corr-id thread: header in, status doc out, and
// a minted default when the client sends none.
func TestCorrelationID(t *testing.T) {
	var runs atomic.Int64
	s := New(Config{Workers: 1, Runner: countingRunner(&runs)})
	defer s.Drain()
	h := s.Handler()

	req := httptest.NewRequest("POST", "/jobs", strings.NewReader(specQuant))
	req.Header.Set("X-Correlation-ID", "trace-abc123")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var doc StatusDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.CorrID != "trace-abc123" {
		t.Fatalf("corr_id = %q, want header value", doc.CorrID)
	}
	waitState(t, s.lookup(doc.ID), StateDone)

	// No header: one is minted from the job ID and hash prefix.
	_, doc2 := postJob(t, h, specQuant)
	if doc2.CorrID == "" || !strings.HasPrefix(doc2.CorrID, doc2.ID+"-") {
		t.Fatalf("minted corr_id = %q, want %s-<hash>", doc2.CorrID, doc2.ID)
	}
}

// A disk spill directory survives a daemon restart: the second daemon serves
// the first daemon's results from disk.
func TestCacheDiskSpillAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64

	s1 := New(Config{Workers: 1, CacheDir: dir, Runner: countingRunner(&runs)})
	_, doc := postJob(t, s1.Handler(), specQuant)
	waitState(t, s1.lookup(doc.ID), StateDone)
	first := get(s1.Handler(), "/jobs/"+doc.ID+"/result").Body.Bytes()
	s1.Drain()

	s2 := New(Config{Workers: 1, CacheDir: dir, Runner: countingRunner(&runs)})
	defer s2.Drain()
	code, doc2 := postJob(t, s2.Handler(), specQuant)
	if code != http.StatusOK || !doc2.Cached {
		t.Fatalf("restarted daemon missed the disk cache (code %d, cached %v)", code, doc2.Cached)
	}
	second := get(s2.Handler(), "/jobs/"+doc2.ID+"/result").Body.Bytes()
	if !bytes.Equal(first, second) {
		t.Fatal("disk-spilled payload not byte-identical")
	}
	if runs.Load() != 1 {
		t.Fatalf("runner invoked %d times across restart, want 1", runs.Load())
	}
}

// TestCacheSpillRejectsDamagedFiles cuts one spill file to seven bytes, as a
// kill mid-write of an unframed file would leave it, and flips a payload byte
// of another, between two daemons. The second daemon must take both for
// misses: remove and count them, rerun both jobs, answer each with the first
// daemon's bytes, and spill both intact again, leaving no temporary file.
func TestCacheSpillRejectsDamagedFiles(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	specs := []string{specQuant, `{"type":"quant","seed":2}`}

	s1 := New(Config{Workers: 1, CacheDir: dir, Runner: countingRunner(&runs)})
	var first [][]byte
	var paths []string
	for _, spec := range specs {
		_, doc := postJob(t, s1.Handler(), spec)
		job := s1.lookup(doc.ID)
		waitState(t, job, StateDone)
		first = append(first, get(s1.Handler(), "/jobs/"+doc.ID+"/result").Body.Bytes())
		paths = append(paths, filepath.Join(dir, job.Hash+".spill"))
	}
	s1.Drain()
	cut, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[0], cut[:7], 0o644); err != nil {
		t.Fatal(err)
	}
	flipped, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	flipped[len(flipped)-1] ^= 0x20
	if err := os.WriteFile(paths[1], flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{Workers: 1, CacheDir: dir, Runner: countingRunner(&runs)})
	defer s2.Drain()
	for i, spec := range specs {
		code, doc := postJob(t, s2.Handler(), spec)
		if doc.Cached {
			t.Fatalf("spec %d: a damaged spill file was served as a cached result (code %d)", i, code)
		}
		waitState(t, s2.lookup(doc.ID), StateDone)
		if got := get(s2.Handler(), "/jobs/"+doc.ID+"/result").Body.Bytes(); !bytes.Equal(got, first[i]) {
			t.Fatalf("spec %d: rerun result %q, first daemon's %q", i, got, first[i])
		}
	}
	if runs.Load() != 4 {
		t.Fatalf("runner invoked %d times, want 4 (both jobs rerun)", runs.Load())
	}
	if _, _, _, _, rejects := s2.cache.Counters(); rejects != 2 {
		t.Fatalf("%d spill rejects counted, want 2", rejects)
	}
	for _, path := range paths {
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := spillPayload(file); !ok {
			t.Fatalf("%s was not spilled intact again", path)
		}
	}
	if names, _ := os.ReadDir(dir); len(names) != len(paths) {
		t.Fatalf("spill directory holds %d files, want %d", len(names), len(paths))
	}
}

// TestSpillFrameRejectsEveryDamage holds spillPayload to the frame: the whole
// file returns its payload, and every proper prefix and every single flipped
// bit is refused.
func TestSpillFrameRejectsEveryDamage(t *testing.T) {
	payload := []byte(`{"hash":"ab12","seed":7}`)
	file := spillFrame(payload)
	if got, ok := spillPayload(file); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("intact frame: payload %q, ok %v", got, ok)
	}
	for n := range file {
		if _, ok := spillPayload(file[:n]); ok {
			t.Fatalf("a %d-byte prefix of a %d-byte frame was accepted", n, len(file))
		}
	}
	for i := range file {
		for b := 0; b < 8; b++ {
			bad := bytes.Clone(file)
			bad[i] ^= 1 << b
			if _, ok := spillPayload(bad); ok {
				t.Fatalf("frame with bit %d of byte %d flipped was accepted", b, i)
			}
		}
	}
}

// TestEndToEndTinySweep drives the daemon end to end over a real loopback
// listener and a real simulation: the health endpoints, a tiny deterministic
// sweep submitted twice (the second answered from the cache with a
// byte-identical payload), /metrics parsing strictly and covering jobs, HTTP routes,
// pool, cache and watchdog, the job's event stream, and the dashboard.
func TestEndToEndTinySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (tiny) simulation sweep")
	}
	// The production runner waits at a gate until the test has subscribed to
	// the job's stream, so the stream sees every cell.
	gate := make(chan struct{})
	var s *Server
	s = New(Config{Workers: 1, Runner: func(ctx context.Context, job *Job) ([]byte, error) {
		<-gate
		return s.runJob(ctx, job)
	}})
	defer s.Drain()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	fetch := func(method, path, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return resp.StatusCode, b
	}
	status := func(method, path, body string) (int, StatusDoc) {
		t.Helper()
		code, b := fetch(method, path, body)
		var doc StatusDoc
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatalf("%s %s: code %d, body %q: %v", method, path, code, b, err)
		}
		return code, doc
	}

	for _, path := range []string{"/healthz", "/readyz"} {
		if code, body := fetch("GET", path, ""); code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, code, body)
		}
	}

	spec := `{"type":"sweep","sweep":{"experiment":"ablation"},"scale":{"op_scale":0.1,"warmup_cycles":200,"measure_cycles":400}}`
	code, doc := status("POST", "/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: code %d, want 202", code)
	}
	resp, err := srv.Client().Get(srv.URL + "/jobs/" + doc.ID + "/stream")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	close(gate)
	checkSweepStream(t, resp.Body)
	resp.Body.Close()
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(10 * time.Millisecond) {
		code, st := status("GET", "/jobs/"+doc.ID, "")
		if code != http.StatusOK {
			t.Fatalf("status %s: code %d", doc.ID, code)
		}
		if st.State == StateDone {
			break
		}
		if st.State == StateFailed || st.State == StateCancelled {
			t.Fatalf("job ended %s: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 2m", st.State)
		}
	}
	_, first := fetch("GET", "/jobs/"+doc.ID+"/result", "")

	var res resultDoc
	if err := json.Unmarshal(first, &res); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if res.Rendered == "" || res.CSV["ablation.csv"] == "" {
		t.Fatal("result payload missing rendered table or CSV")
	}

	code2, doc2 := status("POST", "/jobs", spec)
	if code2 != http.StatusOK || !doc2.Cached {
		t.Fatalf("second identical sweep not cached (code %d)", code2)
	}
	if _, second := fetch("GET", "/jobs/"+doc2.ID+"/result", ""); !bytes.Equal(first, second) {
		t.Fatal("real sweep results not byte-identical across cache hit")
	}

	code, metrics := fetch("GET", "/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("/metrics: code %d", code)
	}
	if _, err := telemetry.Parse(string(metrics)); err != nil {
		t.Fatalf("/metrics is not valid exposition text: %v\n%s", err, metrics)
	}
	for _, want := range []string{
		"mlnoc_jobs_submitted_total 2",
		`mlnoc_jobs_finished_total{state="done",type="sweep"} 2`,
		"mlnoc_cache_hits_total 1",
		"mlnoc_cache_misses_total 1",
		"mlnoc_cache_evictions_total 0",
		"mlnoc_cache_spills_total 0",
		"mlnoc_pool_workers",
		"mlnoc_queue_depth 0",
		"mlnoc_draining 0",
		`mlnoc_job_latency_seconds_count{type="sweep"} 1`,
		`mlnoc_http_request_duration_seconds_count{route="submit"} 2`,
		`mlnoc_watchdog_alerts_total{kind="starvation"} 0`,
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	if code, dash := fetch("GET", "/dashboard", ""); code != http.StatusOK || !bytes.Contains(dash, []byte("<!DOCTYPE html>")) {
		t.Fatalf("/dashboard: code %d, want 200 with HTML", code)
	}
}

// checkSweepStream reads a sweep job's event stream to its end and checks
// the per-cell feed: one snapshot event per cell, each ahead of that cell's
// progress event, and progress counting 1, 2, ... up to the sweep's total.
func checkSweepStream(t *testing.T, body io.Reader) {
	t.Helper()
	snapped := map[string]bool{}
	progress := 0
	total := -1
	var kind string
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			kind = name
			continue
		}
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		switch kind {
		case "snapshot":
			var s snapshotSummary
			if err := json.Unmarshal([]byte(data), &s); err != nil {
				t.Fatalf("snapshot event %q: %v", data, err)
			}
			if snapped[s.Cell] {
				t.Fatalf("cell %q streamed two snapshots", s.Cell)
			}
			if s.Delivered == 0 {
				t.Errorf("cell %q snapshot delivered nothing: %s", s.Cell, data)
			}
			snapped[s.Cell] = true
		case "progress":
			var p Progress
			if err := json.Unmarshal([]byte(data), &p); err != nil {
				t.Fatalf("progress event %q: %v", data, err)
			}
			progress++
			if p.Done != progress || (total >= 0 && p.Total != total) {
				t.Fatalf("progress event %d = %+v, want done %d of %d", progress, p, progress, total)
			}
			total = p.Total
			if !snapped[p.Label] {
				t.Fatalf("progress for cell %q came before its snapshot", p.Label)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if total <= 0 || progress != total || len(snapped) != total {
		t.Fatalf("stream carried %d progress and %d snapshot events, want %d of each", progress, len(snapped), total)
	}
}

// Job IDs are "j" and the submission number, zero-padded to six digits.
func TestJobID(t *testing.T) {
	for seq, want := range map[int]string{1: "j000001", 42: "j000042", 999999: "j999999", 1234567: "j1234567"} {
		if got := jobID(seq); got != want {
			t.Errorf("jobID(%d) = %q, want %q", seq, got, want)
		}
	}
}
