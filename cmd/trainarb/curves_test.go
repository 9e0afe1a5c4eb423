package main

import (
	"context"
	"slices"
	"testing"

	"mlnoc/internal/core"
	"mlnoc/internal/experiments"
	"mlnoc/internal/rl"
)

// TestCurvesRecordTrainedBatches trains a small mesh agent with curves
// attached: there is one point per pointEvery batches that trained, at the
// step count those batches reached, and the target syncs are the multiples
// of SyncEvery up to the learner's steps.
func TestCurvesRecordTrainedBatches(t *testing.T) {
	const batch, syncEvery, cycles = 4, 50, 600
	rec := &curves{}
	tr, err := core.Train(context.Background(), core.TrainSpec{
		Env: experiments.UniformMesh(4, 1, 2), Epochs: 2, EpochCycles: cycles / 2, Seed: 1,
		DQL:    rl.DQLConfig{BatchSize: batch, SyncEvery: syncEvery},
		Attach: rec.attach,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := tr.Agent.DQL
	trained := d.Steps() / batch
	// The first cycles run with empty replay memory and train nothing.
	if trained == 0 || trained >= cycles || rec.batches != trained {
		t.Fatalf("%d batches recorded, the learner trained %d in %d cycles", rec.batches, trained, cycles)
	}
	if want := int(trained / pointEvery); len(rec.steps) != want {
		t.Fatalf("%d points for %d trained batches, want %d", len(rec.steps), trained, want)
	}
	if len(rec.loss) != len(rec.steps) || len(rec.fill) != len(rec.steps) || len(rec.eps) != len(rec.steps) {
		t.Fatalf("curves of %d, %d, %d and %d points", len(rec.steps), len(rec.loss), len(rec.fill), len(rec.eps))
	}
	for i, s := range rec.steps {
		if want := int64(i+1) * pointEvery * batch; s != want {
			t.Fatalf("point %d at step %d, want %d", i, s, want)
		}
		if rec.loss[i] <= 0 || rec.fill[i] <= 0 || rec.fill[i] > 1 || rec.eps[i] <= 0 || rec.eps[i] > 0.5 {
			t.Fatalf("point %d: loss %v, fill %v, epsilon %v", i, rec.loss[i], rec.fill[i], rec.eps[i])
		}
	}
	var want []int64
	for s := int64(syncEvery); s <= d.Steps(); s += syncEvery {
		want = append(want, s)
	}
	if len(want) == 0 || !slices.Equal(rec.syncs, want) {
		t.Fatalf("syncs at %v, want %v (%d steps)", rec.syncs, want, d.Steps())
	}
}

// TestCurvesSkipEmptyReplay: a cycle whose replay memory is empty trained no
// batch, and records neither a point nor a sync.
func TestCurvesSkipEmptyReplay(t *testing.T) {
	rec := &curves{agent: core.NewAgent(core.MeshSpec(3), core.AgentConfig{Hidden: 4, Seed: 1})}
	for range 3 * pointEvery {
		rec.agent.OnCycle(nil)
		rec.onCycle(nil)
	}
	if rec.batches != 0 || len(rec.steps) != 0 || len(rec.syncs) != 0 {
		t.Fatalf("empty replay recorded %d batches, %d points, %d syncs", rec.batches, len(rec.steps), len(rec.syncs))
	}
}
