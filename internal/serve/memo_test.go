package serve

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// memoLen is the number of bodies s's spec memo holds.
func memoLen(s *Server) int {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return s.memo.lru.Len()
}

// memoized returns the spec s's memo holds for body, nil when it holds none.
func memoized(s *Server, body string) *Spec {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	p, _ := s.memo.lru.Get(sha256.Sum256([]byte(body)))
	return p.spec
}

// The memo holds at most Config.CacheEntries bodies, however many distinct
// ones are submitted.
func TestSpecMemoBounded(t *testing.T) {
	const entries = 4
	var runs atomic.Int64
	s := New(Config{Workers: 1, CacheEntries: entries, Runner: countingRunner(&runs)})
	defer s.Drain()
	h := s.Handler()
	for seed := 1; seed <= 2*entries; seed++ {
		if code, _ := postJob(t, h, fmt.Sprintf(`{"type":"quant","seed":%d}`, seed)); code != http.StatusAccepted {
			t.Fatalf("seed %d: code %d, want 202", seed, code)
		}
	}
	if n := memoLen(s); n != entries {
		t.Fatalf("memo holds %d bodies after %d distinct ones, want %d", n, 2*entries, entries)
	}
}

// A body past the 1 MB cap is refused before it is parsed, so it is never
// memoized, even when what it holds is a valid spec padded with whitespace.
func TestSpecMemoSkipsOversizedBody(t *testing.T) {
	var runs atomic.Int64
	s := New(Config{Workers: 1, Runner: countingRunner(&runs)})
	defer s.Drain()
	body := specQuant + strings.Repeat(" ", maxSpecBytes)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "request body too large") {
		t.Fatalf("oversized body: code %d %s, want 400 request body too large", rec.Code, rec.Body)
	}
	if n := memoLen(s); n != 0 {
		t.Fatalf("memo holds %d bodies after an oversized one, want 0", n)
	}
}

// Submissions of one body racing each other get one hash and one shared
// spec (run under -race by make race).
func TestSpecMemoConcurrentSubmissions(t *testing.T) {
	var runs atomic.Int64
	s := New(Config{Workers: 1, Runner: countingRunner(&runs)})
	defer s.Drain()
	h := s.Handler()
	const submitters = 8
	ids := make([]string, submitters)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", strings.NewReader(specQuant)))
			if rec.Code == http.StatusOK || rec.Code == http.StatusAccepted {
				ids[i] = rec.Body.String()[len(`{"id":"`):][:len("j000001")]
			}
		}()
	}
	close(start)
	wg.Wait()
	first := s.lookup(ids[0])
	if first == nil {
		t.Fatalf("submission 0 answered no job (IDs %q)", ids)
	}
	for i, id := range ids[1:] {
		job := s.lookup(id)
		if job == nil {
			t.Fatalf("submission %d answered no job (IDs %q)", i+1, ids)
		}
		if job.Spec != first.Spec || job.Hash != first.Hash {
			t.Fatalf("submission %d got spec %p hash %s, submission 0 %p %s", i+1, job.Spec, job.Hash, first.Spec, first.Hash)
		}
	}
	if n := memoLen(s); n != 1 {
		t.Fatalf("memo holds %d bodies, want 1", n)
	}
}

// Running jobs reads a memoized spec and never writes it: after a cold mesh
// job and a cold fault job have run on theirs, each still equals a fresh
// parse of its body.
func TestSpecMemoUnchangedByRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (tiny) simulations")
	}
	s := New(Config{Workers: 1})
	defer s.Drain()
	h := s.Handler()
	for _, body := range []string{
		`{"type":"mesh","mesh":{"sizes":[4,5]},"scale":{"warmup_cycles":100,"measure_cycles":300}}`,
		`{"type":"fault","fault":{"rates":[0,0.1]},"scale":{"op_scale":0.05,"warmup_cycles":200,"measure_cycles":400}}`,
	} {
		code, doc := postJob(t, h, body)
		if code != http.StatusAccepted {
			t.Fatalf("%s: code %d, want 202", body, code)
		}
		job := s.lookup(doc.ID)
		waitState(t, job, StateDone)
		if memoized(s, body) != job.Spec {
			t.Fatalf("%s: the job did not run on the memoized spec", body)
		}
		if fresh := mustParse(t, body); !reflect.DeepEqual(job.Spec, fresh) {
			t.Fatalf("%s: the memoized spec is now %+v, a fresh parse %+v", body, job.Spec, fresh)
		}
	}
}
