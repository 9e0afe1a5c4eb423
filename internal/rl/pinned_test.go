package rl

import (
	"math"
	"math/rand"
	"testing"

	"mlnoc/internal/nn"
)

// TestTrainBatchPinnedAPU holds 300 batches of an APU-shaped learner
// (504->42->42, batch 32) to the weights they produced while the target's
// layer 0 ran on the row-major tile kernel: the sums below were recorded on
// that code (commit 91ff88c) and are compared as literals. SyncEvery 50 puts a
// target sync inside most batches, and one experience in nine is terminal, so
// the chunks handed to the target are rarely whole tiles of four.
func TestTrainBatchPinnedAPU(t *testing.T) {
	d := NewDQL(newNet(7, 504, 42, 42), DQLConfig{
		BatchSize: 32, ReplayCap: 900, SyncEvery: 50, LR: 0.05, Gamma: 0.5,
	})
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < d.Replay.Cap(); i++ {
		observe(d, Experience{
			State:     sparse(sparseStateVec(rng, 504, 12, 2+rng.Intn(2))),
			Action:    rng.Intn(42),
			Reward:    rng.Float64(),
			Next:      sparse(sparseStateVec(rng, 504, 12, 2+rng.Intn(2))),
			Terminal:  i%9 == 4,
			NextValid: []int{rng.Intn(14), 14 + rng.Intn(14), 28 + rng.Intn(14)},
		})
	}
	for i := 0; i < 299; i++ {
		d.TrainBatch(rng)
	}
	// The sum of a layer's weights, then of its biases, in storage order.
	sums := func(m *nn.MLP) (out []uint64) {
		m.WriteBack()
		for _, l := range m.Layers {
			for _, params := range [][]float64{l.W, l.B} {
				s := 0.0
				for _, v := range params {
					s += v
				}
				out = append(out, math.Float64bits(s))
			}
		}
		return out
	}
	// 300 batches end on a sync (9 600 steps), so the target is read one batch
	// earlier, 18 steps after its last one.
	got := sums(d.Target)
	loss := d.TrainBatch(rng)
	got = append(append(got, sums(d.Online)...), math.Float64bits(loss))
	want := []uint64{
		0xc051230e0e11f3c5, 0xc0174ec5f5f7da22, 0x405473b15d5f81d9, 0x400b0e29e8632a42, // target
		0xc05141339b540259, 0xc0176bd9a67497d6, 0x40548ddecb2a3298, 0x400b36d3852318f5, // online
		0x3fb5f84472aca5de, // loss of batch 300
	}
	if len(got) != len(want) {
		t.Fatalf("recorded %#x", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sum %d is %#x, pinned %#x (all: %#x)", i, got[i], want[i], got)
		}
	}
	if d.Steps() != 300*32 {
		t.Fatalf("steps %d", d.Steps())
	}
}
