package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"

	"mlnoc/internal/experiments"
	"mlnoc/internal/serve"
	"mlnoc/internal/stats"
	"mlnoc/internal/telemetry"
)

const (
	// simdSpecs distinct jobs fit the daemon's 128-entry result LRU, so once
	// each has run cold every measured submission is a memory hit.
	simdSpecs        = 64
	simdOpsPerWindow = 20
)

// simdInst drives an in-process simd daemon over loopback HTTP with one
// keep-alive client. The set-up runs simdSpecs small mesh jobs cold; an op is
// POST /jobs with the next of those specs (a cache hit) followed by GET
// /jobs/{id}/result, whose payload must hash like the cold one.
type simdInst struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	bodies [][]byte
	hashes [][sha256.Size]byte
	next   int

	// Outputs of the last window, checked after it.
	status  [simdOpsPerWindow][2]int
	cached  [simdOpsPerWindow]bool
	results [simdOpsPerWindow]bytes.Buffer
	specOf  [simdOpsPerWindow]int
	opErr   error

	bytesOut, ops int64 // payload bytes and count of the ops that passed

	// Traced instances only: client-side time of every request in ms, and
	// the cache counters as of the end of the set-up.
	tr              *tracer
	submitMS, resMS []float64
	hits0, miss0    float64
}

func simdSpecBody(seed int64, i int) []byte {
	return []byte(fmt.Sprintf(
		`{"type":"mesh","seed":%d,"scale":{"warmup_cycles":300,"measure_cycles":1000},"mesh":{"sizes":[4]}}`,
		1+(seed&0xffffff)*simdSpecs+int64(i)))
}

// startSimd starts a daemon on a loopback port and a client for it.
func startSimd(tr *tracer) *simdInst {
	s := &simdInst{tr: tr, srv: serve.New(serve.Config{})}
	s.ts = httptest.NewServer(s.srv.Handler())
	s.client = s.ts.Client()
	return s
}

func buildSimd(seed int64, tr *tracer, lap func()) (instance, error) {
	s := startSimd(tr)
	for i := 0; i < simdSpecs; i++ {
		lap()
		body := simdSpecBody(seed, i)
		payload, err := s.runCold(body)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("cold job %d: %w", i, err)
		}
		s.bodies = append(s.bodies, body)
		s.hashes = append(s.hashes, sha256.Sum256(payload))
	}
	if tr != nil {
		var err error
		if s.hits0, s.miss0, _, err = s.scrape(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// statusDoc is the part of serve.StatusDoc a client needs.
type statusDoc struct {
	ID     string `json:"id"`
	Cached bool   `json:"cached"`
}

// submitJob POSTs a spec and returns the HTTP status and the job's status.
func (s *simdInst) submitJob(body []byte) (int, statusDoc, error) {
	var doc statusDoc
	resp, err := s.client.Post(s.ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, doc, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return resp.StatusCode, doc, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, doc, err
}

// fetch GETs path into dst (or discards the body when dst is nil).
func (s *simdInst) fetch(path string, dst *bytes.Buffer) (int, error) {
	resp, err := s.client.Get(s.ts.URL + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var w io.Writer = io.Discard
	if dst != nil {
		dst.Reset()
		w = dst
	}
	_, err = io.Copy(w, resp.Body)
	return resp.StatusCode, err
}

// runCold submits a job the daemon has not seen, waits on its event stream
// until it is terminal, and returns the result payload.
func (s *simdInst) runCold(body []byte) ([]byte, error) {
	code, doc, err := s.submitJob(body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusAccepted || doc.Cached {
		return nil, fmt.Errorf("cold submission answered %d cached=%t, want 202 uncached", code, doc.Cached)
	}
	if _, err := s.fetch("/jobs/"+doc.ID+"/stream", nil); err != nil {
		return nil, err
	}
	var payload bytes.Buffer
	code, err = s.fetch("/jobs/"+doc.ID+"/result", &payload)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("result answered %d: %s", code, payload.String())
	}
	return payload.Bytes(), nil
}

func (s *simdInst) Window() {
	s.opErr = nil
	var subNS, resNS int64
	for k := 0; k < simdOpsPerWindow; k++ {
		spec := s.next
		s.next = (s.next + 1) % simdSpecs
		s.specOf[k] = spec
		t0 := now()
		code, doc, err := s.submitJob(s.bodies[spec])
		t1 := now()
		if err != nil {
			s.status[k], s.opErr = [2]int{}, err
			continue
		}
		code2, err := s.fetch("/jobs/"+doc.ID+"/result", &s.results[k])
		if err != nil {
			s.opErr = err
		}
		s.status[k], s.cached[k] = [2]int{code, code2}, doc.Cached
		if s.tr != nil {
			t2 := now()
			s.submitMS = append(s.submitMS, float64(t1-t0)/1e6)
			s.resMS = append(s.resMS, float64(t2-t1)/1e6)
			subNS += t1 - t0
			resNS += t2 - t1
		}
	}
	if s.tr != nil {
		s.tr.child(s.tr.cur, "serve.submit", subNS, simdOpsPerWindow)
		s.tr.child(s.tr.cur, "serve.result", resNS, simdOpsPerWindow)
	}
}

func (s *simdInst) Check() (int, string) {
	failed, why := 0, ""
	for k := 0; k < simdOpsPerWindow; k++ {
		var bad string
		switch {
		case s.status[k] != [2]int{http.StatusOK, http.StatusOK}:
			bad = fmt.Sprintf("HTTP status %v, want 200 200 (%v)", s.status[k], s.opErr)
		case !s.cached[k]:
			bad = "submission was not answered from the cache"
		case sha256.Sum256(s.results[k].Bytes()) != s.hashes[s.specOf[k]]:
			bad = "cached payload differs from the cold payload"
		}
		if bad != "" {
			failed++
			if why == "" {
				why = fmt.Sprintf("op %d (spec %d): %s", k, s.specOf[k], bad)
			}
			continue
		}
		s.bytesOut += int64(s.results[k].Len())
		s.ops++
	}
	return failed, why
}

func (s *simdInst) State() string { return "" }
func (s *simdInst) Finish() error { return nil }

func (s *simdInst) Close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Drain()
}

// scrape GETs /metrics and returns the cache hit and miss counters and the
// number of series in the document.
func (s *simdInst) scrape() (hits, misses float64, series int, err error) {
	var doc bytes.Buffer
	if _, err = s.fetch("/metrics", &doc); err != nil {
		return 0, 0, 0, err
	}
	fams, err := telemetry.Parse(doc.String())
	if err != nil {
		return 0, 0, 0, fmt.Errorf("/metrics does not parse: %w", err)
	}
	for _, f := range fams {
		series += len(f.Samples)
	}
	for name, dst := range map[string]*float64{"mlnoc_cache_hits_total": &hits, "mlnoc_cache_misses_total": &misses} {
		if sm := telemetry.Find(fams, name, nil); sm != nil {
			*dst = sm.Value
		}
	}
	return hits, misses, series, nil
}

func (s *simdInst) Layers(out map[string]float64) {
	out["serve.submit_ms_p50"], out["serve.submit_ms_p95"] = stats.Percentile(s.submitMS, 50), stats.Percentile(s.submitMS, 95)
	out["serve.result_ms_p50"], out["serve.result_ms_p95"] = stats.Percentile(s.resMS, 50), stats.Percentile(s.resMS, 95)
	if s.ops > 0 {
		out["serve.bytes_per_result"] = float64(s.bytesOut) / float64(s.ops)
	}
	if hits, misses, series, err := s.scrape(); err == nil {
		if d := (hits - s.hits0) + (misses - s.miss0); d > 0 {
			out["serve.cache_hit_ratio"] = (hits - s.hits0) / d
		}
		out["telemetry.series_count"] = float64(series)
	}
	out["telemetry.scrape_ms"] = timeCall(func() { _, _ = s.fetch("/metrics", nil) }) / 1e6

	// The serve functions a submission runs before it reaches the cache,
	// timed directly on the specs of this run.
	i := 0
	next := func() []byte { i++; return s.bodies[i%simdSpecs] }
	out["serve.spec_parse_us"] = timeCall(func() { _, _ = serve.ParseSpec(next()) }) / 1e3
	spec, err := serve.ParseSpec(s.bodies[0])
	if err != nil {
		return
	}
	out["serve.spec_hash_us"] = timeCall(func() { spec.Hash() }) / 1e3

	// What the daemon adds to a cold job: a second daemon runs this run's
	// specs cold, each followed by the same spec straight through the
	// experiments entry point its job type maps onto, so both see the same
	// host noise.
	other := startSimd(nil)
	defer other.Close()
	var cold, direct, extra []float64
	for _, body := range s.bodies {
		sp, err := serve.ParseSpec(body)
		if err != nil {
			return
		}
		t0 := now()
		if _, err := other.runCold(body); err != nil {
			return
		}
		t1 := now()
		if _, err := experiments.ScalingStudyCtx(context.Background(), sp.Mesh.Sizes, []int{1}, false, sp.ResolveScale()); err != nil {
			return
		}
		t2 := now()
		cold = append(cold, float64(t1-t0)/1e6)
		direct = append(direct, float64(t2-t1)/1e6)
		extra = append(extra, float64(t1-t0-(t2-t1))/1e6)
	}
	out["serve.cold_job_ms_p50"] = stats.Percentile(cold, 50)
	out["serve.cold_direct_ms_p50"] = stats.Percentile(direct, 50)
	out["serve.cold_overhead_ms"] = stats.Percentile(extra, 50)
}
