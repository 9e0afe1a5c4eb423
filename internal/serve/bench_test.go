package serve

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// BenchmarkJobHash measures the job hash, the experiments.Key of the job's
// input: parse-free, it is the per-submission fixed cost every request pays
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

// BenchmarkSubmitCachedJob measures the full submission path for a job the
// cache already holds — the latency a repeated deterministic job observes
// instead of a simulation.
func BenchmarkSubmitCachedJob(b *testing.B) {
	s := New(Config{Workers: 1, Runner: func(_ context.Context, job *Job) ([]byte, error) {
		return json.Marshal(map[string]string{"hash": job.Hash})
	}})
	defer s.Drain()
	spec := &Spec{Type: TypeQuant}
	job, err := s.SubmitCorr(spec, "")
	if err != nil {
		b.Fatal(err)
	}
	for job.State() != StateDone {
		time.Sleep(time.Millisecond)
	}
	b.ReportAllocs()
	for b.Loop() {
		job, err := s.SubmitCorr(spec, "")
		if err != nil {
			b.Fatal(err)
		}
		if !job.Cached() {
			b.Fatal("submission missed the cache")
		}
	}
}
