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

// check reports what is wrong with e as a record of this dataset, if anything:
// both states must be well-formed StateSize-wide sparse vectors (a terminal
// record's Next is not looked at) and every action index within [0, Actions).
func (d *Dataset) check(e *Experience) error {
	if err := e.State.Validate(d.StateSize); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	if e.Action < 0 || e.Action >= d.Actions {
		return fmt.Errorf("action %d out of %d", e.Action, d.Actions)
	}
	if e.Terminal {
		return nil
	}
	if err := e.Next.Validate(d.StateSize); err != nil {
		return fmt.Errorf("next state: %w", err)
	}
	for _, a := range e.NextValid {
		if a < 0 || a >= d.Actions {
			return fmt.Errorf("next-valid action %d out of %d", a, d.Actions)
		}
	}
	return nil
}

// Add appends one experience after validating its shape.
func (d *Dataset) Add(e Experience) {
	if err := d.check(&e); err != nil {
		panic(fmt.Sprintf("rl: record %v", err))
	}
	d.Records = append(d.Records, e)
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.Records) }

// Save writes the dataset in gob format: the shapes, then the records with
// their states as index and value lists.
func (d *Dataset) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(d)
}

// LoadDataset reads a dataset previously written with Save and validates every
// record, so that a malformed file fails here and not inside training. Files
// that hold dense state vectors (written before states became sparse) do not
// decode.
func LoadDataset(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := gob.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("rl: load dataset: %w", err)
	}
	if d.StateSize <= 0 || d.Actions <= 0 {
		return nil, fmt.Errorf("rl: load dataset: malformed shapes")
	}
	for i := range d.Records {
		if err := d.check(&d.Records[i]); err != nil {
			return nil, fmt.Errorf("rl: load dataset: record %d: %w", i, err)
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
			if !e.Terminal {
				// The target network computes the Q-values the max is over,
				// not the others.
				target += d.Cfg.Gamma * bootstrap(d.Target.ForwardSparse(e.Next, e.NextValid), e.NextValid)
			}
			total += d.Online.TrainActionSparse(e.State, e.Action, target, d.Cfg.LR)
			d.steps++
			if d.steps%d.Cfg.SyncEvery == 0 {
				d.Target.CopyFrom(d.Online)
			}
		}
		last = total / float64(data.Len())
	}
	return last
}
