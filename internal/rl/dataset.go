package rl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
)

// Dataset is a sequence of experiences recorded from simulation, the
// substrate of the paper's offline workflow (Fig. 2): "we collected the NoC
// router states over a large number of simulated cycles... it is impractical
// for a human to manually dig through so much data". Datasets are produced by
// core.Recorder while an arbitrary behaviour policy runs, saved with Save,
// and consumed by TrainOffline. A Dataset is a replay memory that never
// evicts (Add grows it), so its slots and its arena hold the experiences in
// the order they were added: the arena up to the youngest record's end is the
// file's body.
type Dataset struct{ *Replay }

// NewDataset creates an empty dataset whose states codec decodes.
func NewDataset(codec StateCodec) *Dataset { return &Dataset{&Replay{Codec: codec}} }

// Add appends one experience.
func (d *Dataset) Add(t Transition) {
	if r := d.Replay; r.size == r.cap {
		// Never having evicted, the ring is in slot order: Add fills slot size.
		r.off = append(r.off, make([]uint32, max(r.cap, 1024))...)
		r.next, r.cap = r.size, len(r.off)
	}
	d.Replay.Add(t)
}

// fileHeader opens a dataset file, in little-endian order. The body follows:
// the records oldest-first, each as appendTransition writes it, then the IEEE
// CRC-32 of all that precedes. A change to what a record holds, or to how a
// codec reads it, takes a new Version.
type fileHeader struct {
	Magic                       [8]byte
	Version, StateSize, Actions uint32
	Count, Length               uint64
}

var datasetMagic = [8]byte{'m', 'l', 'n', 'o', 'c', 'X', 'P', '\n'}

const datasetVersion = 2

// Save writes the dataset file.
func (d *Dataset) Save(w io.Writer) error {
	var b bytes.Buffer
	h := fileHeader{datasetMagic, datasetVersion, uint32(d.Codec.InputSize()), uint32(d.Codec.ActionSize()), uint64(d.Len()), uint64(d.end)}
	binary.Write(&b, binary.LittleEndian, h) // a fixed-size value into a Buffer cannot fail
	b.Write(d.arena[:d.end])
	_, err := w.Write(binary.LittleEndian.AppendUint32(b.Bytes(), crc32.ChecksumIEEE(b.Bytes())))
	return err
}

// LoadDataset reads a dataset file written by Save, whose states codec
// decodes; the file's shapes must be the codec's. It decodes every experience
// once, so that a malformed file fails here and not inside training, with an
// error that names the record at fault.
func LoadDataset(r io.Reader, codec StateCodec) (d *Dataset, err error) {
	defer func() {
		if p := recover(); p != nil { // decoding the last record panicked
			err = fmt.Errorf("record %d: decode: %v", d.Len()-1, p)
		}
		if err != nil {
			d, err = nil, fmt.Errorf("rl: load dataset: %w", err)
		}
	}()
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var h fileHeader
	n := binary.Size(h)
	if binary.Read(bytes.NewReader(b), binary.LittleEndian, &h) != nil || h.Magic != datasetMagic || len(b) < n+4 {
		return nil, errors.New("not a dataset file")
	}
	body := b[n : len(b)-4]
	switch {
	case h.Version != datasetVersion:
		return nil, fmt.Errorf("format version %d, want %d", h.Version, datasetVersion)
	case int(h.StateSize) != codec.InputSize() || int(h.Actions) != codec.ActionSize():
		return nil, fmt.Errorf("shapes %d x %d, the codec's %d x %d", h.StateSize, h.Actions, codec.InputSize(), codec.ActionSize())
	case h.Length != uint64(len(body)):
		return nil, fmt.Errorf("body of %d bytes, file holds %d", h.Length, len(body))
	case crc32.ChecksumIEEE(b[:len(b)-4]) != binary.LittleEndian.Uint32(b[len(b)-4:]):
		return nil, errors.New("checksum mismatch")
	}
	d = NewDataset(codec)
	for p := 0; p < len(body); {
		i := d.Len()
		t, m, ok := parseTransition(body[p:])
		if !ok {
			return nil, fmt.Errorf("record %d: malformed transition", i)
		}
		if d.Add(t); !bytes.Equal(d.arena[d.off[i]:d.end], body[p:p+m]) {
			return nil, fmt.Errorf("record %d: not in canonical form", i)
		}
		if a := d.At(i).Action; a >= codec.ActionSize() {
			return nil, fmt.Errorf("record %d: action %d out of %d", i, a, codec.ActionSize())
		}
		p += m
	}
	if uint64(d.Len()) != h.Count {
		return nil, fmt.Errorf("%d records, header says %d", d.Len(), h.Count)
	}
	return d, nil
}

// TrainOffline runs epochs of uniformly sampled Bellman updates from the
// dataset against the learner — the paper's offline alternative to training
// inside the simulator loop. Samples per epoch equals the dataset size; each
// is one SampleInto draw. It returns the mean TD error of the final epoch.
func (d *DQL) TrainOffline(rng *rand.Rand, data *Dataset, epochs int) float64 {
	if data.Len() == 0 {
		return 0
	}
	if d.Online.InputSize() != data.Codec.InputSize() || d.Online.OutputSize() != data.Codec.ActionSize() {
		panic("rl: dataset shapes do not match the learner's network")
	}
	d.ensureTarget()
	draw := make([]*Experience, 1)
	last := 0.0
	for ep := 0; ep < epochs; ep++ {
		total := 0.0
		for i := 0; i < data.Len(); i++ {
			data.SampleInto(rng, draw)
			e := draw[0]
			target := e.Reward
			if !e.Terminal {
				// The target network computes the Q-values the max is over,
				// not the others.
				target += float64(d.Cfg.Gamma * bootstrap(d.Target.ForwardSparse(e.Next, e.NextValid), e.NextValid))
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
