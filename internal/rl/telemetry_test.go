package rl

import (
	"math/rand"
	"testing"
)

// trainSome builds a small DQL, fills replay, and runs batches with a seeded
// RNG, returning the learner for inspection.
func trainSome(trace *TrainingTrace, batches int) *DQL {
	d := NewDQL(newNet(3, 4, 5, 2), DQLConfig{BatchSize: 2, SyncEvery: 4, ReplayCap: 8})
	d.Trace = trace
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		observe(d, Experience{
			State:    sparse([]float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}),
			Action:   i % 2,
			Reward:   rng.Float64(),
			Terminal: true,
		})
	}
	for i := 0; i < batches; i++ {
		d.TrainBatch(rng)
	}
	return d
}

func TestTrainingTraceRecordsCurves(t *testing.T) {
	tr := &TrainingTrace{Every: 2}
	tr.ObserveEpsilon(0.9)
	d := trainSome(tr, 6) // 6 batches of 2 -> 12 SGD steps
	if got := tr.Points(); got != 3 {
		t.Fatalf("Points = %d, want 3 (6 batches, Every=2)", got)
	}
	if len(tr.Loss) != 3 || len(tr.ReplayFill) != 3 || len(tr.Epsilon) != 3 {
		t.Fatalf("curve lengths diverge: loss %d, fill %d, eps %d",
			len(tr.Loss), len(tr.ReplayFill), len(tr.Epsilon))
	}
	// Steps is the x-axis: strictly increasing SGD-step counts ending at the
	// learner's total.
	for i := 1; i < len(tr.Steps); i++ {
		if tr.Steps[i] <= tr.Steps[i-1] {
			t.Fatalf("Steps not increasing: %v", tr.Steps)
		}
	}
	if tr.Steps[len(tr.Steps)-1] != d.Steps() {
		t.Fatalf("last point at step %d, learner at %d", tr.Steps[len(tr.Steps)-1], d.Steps())
	}
	// Replay holds 6 of 8 experiences throughout.
	for _, f := range tr.ReplayFill {
		if f != 6.0/8 {
			t.Fatalf("ReplayFill = %v, want 0.75", tr.ReplayFill)
		}
	}
	// Epsilon is whatever the harness last fed.
	for _, e := range tr.Epsilon {
		if e != 0.9 {
			t.Fatalf("Epsilon = %v, want 0.9 everywhere", tr.Epsilon)
		}
	}
	// SyncEvery=4 over 12 steps: target refreshed at steps 4, 8 and 12.
	if want := []int64{4, 8, 12}; len(tr.SyncSteps) != len(want) {
		t.Fatalf("SyncSteps = %v, want %v", tr.SyncSteps, want)
	} else {
		for i, s := range want {
			if tr.SyncSteps[i] != s {
				t.Fatalf("SyncSteps = %v, want %v", tr.SyncSteps, want)
			}
		}
	}
}

// TestTrainingTraceIsPassive pins the no-perturbation contract: a traced
// learner follows the exact weight trajectory of an untraced one.
func TestTrainingTraceIsPassive(t *testing.T) {
	plain := trainSome(nil, 5)
	traced := trainSome(&TrainingTrace{Every: 1}, 5)
	in := []float64{0.3, 0.1, 0.7, 0.2}
	p, q := plain.Online.Forward(in), traced.Online.Forward(in)
	for i := range p {
		if p[i] != q[i] {
			t.Fatalf("traced training diverged: output %v vs %v", p, q)
		}
	}
}

func TestTrainingTraceEmptyReplay(t *testing.T) {
	tr := &TrainingTrace{}
	d := NewDQL(newNet(3, 4, 5, 2), DQLConfig{})
	d.Trace = tr
	if loss := d.TrainBatch(rand.New(rand.NewSource(1))); loss != 0 {
		t.Fatalf("empty-replay TrainBatch loss = %v, want 0", loss)
	}
	if tr.Points() != 0 {
		t.Fatalf("empty-replay TrainBatch recorded %d points", tr.Points())
	}
}
