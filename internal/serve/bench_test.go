package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// BenchmarkJobHash measures the job hash, the experiments.Key of the job's
// input: parse-free, it is what a body the spec memo has not seen pays
// before the cache lookup.
func BenchmarkJobHash(b *testing.B) {
	spec := &Spec{
		Type:  TypeSweep,
		Seed:  7,
		Scale: &ScaleSpec{Preset: "quick", OpScale: 0.5},
		Sweep: &SweepSpec{Experiment: "exec", TrainNN: true},
	}
	b.ReportAllocs()
	for b.Loop() {
		_ = spec.Hash()
	}
}

// request builds a server request without httptest.NewRequest, whose
// parse of a whole HTTP message would dwarf what the handler allocates.
func request(tb testing.TB, method, path string, body io.Reader) *http.Request {
	req, err := http.NewRequest(method, path, body)
	if err != nil {
		tb.Fatal(err)
	}
	return req
}

// warmCachedServer returns a Server whose result cache holds specQuant's
// payload, and a function that makes one cache hit through the HTTP handler:
// POST /jobs, then GET /jobs/{id}/result, each into a fresh recorder.
func warmCachedServer(tb testing.TB) (*Server, func()) {
	tb.Helper()
	s := New(Config{Workers: 1, Runner: func(_ context.Context, job *Job) ([]byte, error) {
		return json.Marshal(map[string]string{"hash": job.Hash})
	}})
	h := s.Handler()
	body := []byte(specQuant)
	post := func() []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, request(tb, "POST", "/jobs", bytes.NewReader(body)))
		return rec.Body.Bytes()
	}
	// The answer starts with the job ID: {"id":"j000001",...
	id := func(doc []byte) string {
		doc = doc[len(`{"id":"`):]
		return string(doc[:bytes.IndexByte(doc, '"')])
	}
	first := id(post())
	for s.lookup(first).State() != StateDone {
		time.Sleep(time.Millisecond)
	}
	return s, func() {
		doc := post()
		if !bytes.Contains(doc, []byte(`"cached":true`)) {
			tb.Fatalf("submission missed the cache: %s", doc)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, request(tb, "GET", "/jobs/"+id(doc)+"/result", nil))
		if rec.Code != http.StatusOK {
			tb.Fatalf("result answered %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkHotCachedSubmit measures one cache hit as simd's client makes it:
// the submission of a spec the daemon has answered before, then the fetch of
// its result.
func BenchmarkHotCachedSubmit(b *testing.B) {
	s, hit := warmCachedServer(b)
	defer s.Drain()
	b.ReportAllocs()
	for b.Loop() {
		hit()
	}
}

// TestCachedSubmitAllocationBudget holds BenchmarkHotCachedSubmit's path to
// 4 650 bytes a hit, its measured 4 231 plus 10 %. A hit that parsed and
// hashed its body again and built its status document three times took
// 6 727.
func TestCachedSubmitAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	s, hit := warmCachedServer(t)
	defer s.Drain()
	hit()
	const hits = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range hits {
		hit()
	}
	runtime.ReadMemStats(&after)
	const budget = 4650
	got := (after.TotalAlloc - before.TotalAlloc) / hits
	t.Logf("one cache hit allocates %d bytes", got)
	if got > budget {
		t.Errorf("one cache hit allocates %d bytes, want at most %d", got, budget)
	}
}
