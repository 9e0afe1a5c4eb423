package rl

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
)

// Dataset is a sequence of experiences recorded from simulation, the
// substrate of the paper's offline workflow (Fig. 2): "we collected the NoC
// router states over a large number of simulated cycles... it is impractical
// for a human to manually dig through so much data". Datasets are produced by
// core.Recorder while an arbitrary behaviour policy runs, saved with gob, and
// consumed by TrainOffline.
type Dataset struct {
	// StateSize and Actions describe the experiences' shapes; every record
	// must agree.
	StateSize int
	Actions   int
	Records   []Experience
}

// NewDataset creates an empty dataset for the given shapes.
func NewDataset(stateSize, actions int) *Dataset {
	if stateSize <= 0 || actions <= 0 {
		panic("rl: dataset needs positive shapes")
	}
	return &Dataset{StateSize: stateSize, Actions: actions}
}

// Add appends one experience after validating its shape.
func (d *Dataset) Add(e Experience) {
	if len(e.State) != d.StateSize {
		panic(fmt.Sprintf("rl: record state size %d, want %d", len(e.State), d.StateSize))
	}
	if e.Action < 0 || e.Action >= d.Actions {
		panic(fmt.Sprintf("rl: record action %d out of %d", e.Action, d.Actions))
	}
	if e.Next != nil && len(e.Next) != d.StateSize {
		panic("rl: record next-state size mismatch")
	}
	d.Records = append(d.Records, e)
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.Records) }

// Save writes the dataset in gob format.
func (d *Dataset) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(d)
}

// LoadDataset reads a dataset previously written with Save.
func LoadDataset(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := gob.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("rl: load dataset: %w", err)
	}
	if d.StateSize <= 0 || d.Actions <= 0 {
		return nil, fmt.Errorf("rl: load dataset: malformed shapes")
	}
	for i, e := range d.Records {
		if len(e.State) != d.StateSize || e.Action < 0 || e.Action >= d.Actions {
			return nil, fmt.Errorf("rl: load dataset: record %d malformed", i)
		}
	}
	return &d, nil
}

// TrainOffline runs epochs of uniformly sampled Bellman updates from the
// dataset against the learner — the paper's offline alternative to training
// inside the simulator loop. Samples per epoch equals the dataset size.
// It returns the mean TD error of the final epoch.
func (d *DQL) TrainOffline(rng *rand.Rand, data *Dataset, epochs int) float64 {
	if data.Len() == 0 {
		return 0
	}
	if d.Online.InputSize() != data.StateSize || d.Online.OutputSize() != data.Actions {
		panic("rl: dataset shapes do not match the learner's network")
	}
	d.ensureTarget()
	last := 0.0
	for ep := 0; ep < epochs; ep++ {
		total := 0.0
		for i := 0; i < data.Len(); i++ {
			e := &data.Records[rng.Intn(data.Len())]
			target := e.Reward
			if e.Next != nil {
				q := d.Target.Forward(e.Next)
				var best float64
				if len(e.NextValid) > 0 {
					best = q[e.NextValid[0]]
					for _, a := range e.NextValid[1:] {
						if q[a] > best {
							best = q[a]
						}
					}
				} else {
					best = q[0]
					for _, v := range q[1:] {
						if v > best {
							best = v
						}
					}
				}
				target += d.Cfg.Gamma * best
			}
			total += d.Online.TrainAction(e.State, e.Action, target, d.Cfg.LR)
			d.steps++
			if d.steps%d.Cfg.SyncEvery == 0 {
				d.Target.CopyFrom(d.Online)
			}
		}
		last = total / float64(data.Len())
	}
	return last
}
