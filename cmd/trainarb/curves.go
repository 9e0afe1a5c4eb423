package main

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"mlnoc/internal/core"
	"mlnoc/internal/noc"
	"mlnoc/internal/viz"
)

// pointEvery is how many trained batches one curve point stands for: it
// keeps training_curves.csv a few thousand rows on default-length runs.
const pointEvery = 10

// curves records a mesh training run's telemetry, the curves that answer
// "did this run converge": TD loss, replay fill and exploration rate, and
// the target-network syncs. It reads the learner from a hook on the training
// network that runs after the agent's OnCycle has trained its batch, and
// changes nothing, so the run is bit-identical with or without it. With dir
// set it also writes the signed weight heatmaps every heatmapEvery epochs,
// and with metrics set it exports every point, sync and epoch live.
type curves struct {
	dir          string
	heatmapEvery int
	metrics      *trainMetrics // nil without -metrics-addr

	agent *core.Agent
	// batches counts the batches that trained; synced is the step count up
	// to which the target syncs are recorded.
	batches, synced int64
	steps, syncs    []int64
	loss, fill, eps []float64
	err             error // the first failed heatmap write
}

// attach is the run's core.TrainSpec.Attach.
func (c *curves) attach(net *noc.Network, a *core.Agent) {
	c.agent = a
	net.AddOnCycle(c.onCycle)
}

// onCycle records the batch the agent's OnCycle just ran. A batch trained
// when replay memory holds an experience (TrainBatch does nothing on an
// empty one), and it refreshed the target at each multiple of SyncEvery its
// steps passed.
func (c *curves) onCycle(*noc.Network) {
	d := c.agent.DQL
	if d.Replay.Len() == 0 {
		return
	}
	if every := d.Cfg.SyncEvery; every > 0 {
		for s := (c.synced/every + 1) * every; s <= d.Steps(); s += every {
			c.syncs = append(c.syncs, s)
			if c.metrics != nil {
				c.metrics.targetSyncs.Inc()
			}
		}
	}
	c.synced = d.Steps()
	if c.batches++; c.batches%pointEvery != 0 {
		return
	}
	step, loss, eps := d.Steps(), d.Loss(), c.agent.Epsilon()
	fill := float64(d.Replay.Len()) / float64(d.Replay.Cap())
	c.steps, c.loss = append(c.steps, step), append(c.loss, loss)
	c.fill, c.eps = append(c.fill, fill), append(c.eps, eps)
	if m := c.metrics; m != nil {
		m.steps.SetInt(step)
		m.loss.Set(loss)
		m.replayFill.Set(fill)
		m.epsilon.Set(eps)
	}
}

// onEpoch records the end of an epoch: its number and average latency on the
// metrics, and the weight heatmap when one is due. Only the first failed
// write is kept; later epochs write nothing.
func (c *curves) onEpoch(epoch int, avg float64) {
	if m := c.metrics; m != nil {
		m.epoch.SetInt(int64(epoch))
		m.epochLatency.Set(avg)
	}
	if c.dir == "" || epoch%c.heatmapEvery != 0 || c.err != nil {
		return
	}
	// Signed weights, not magnitudes: the CSV is the Fig. 4/7 raw artifact,
	// and sign structure is what interpretation reads.
	h := core.NewHeatmap(c.agent.Spec, c.agent.Net())
	csv := viz.MatrixCSV("feature", h.RowLabels, h.ColLabels, h.Signed)
	c.err = writeString(filepath.Join(c.dir, fmt.Sprintf("weights_epoch%03d.csv", epoch)), csv)
}

// report prints the telemetry summary and, with dir set, writes the curves.
func (c *curves) report(stdout io.Writer) error {
	if len(c.steps) == 0 {
		return nil
	}
	last := len(c.steps) - 1
	fmt.Fprintf(stdout, "telemetry: %d curve points, %d target syncs, final loss %.5f, final epsilon %.4f, replay fill %.0f%%\n",
		len(c.steps), len(c.syncs), c.loss[last], c.eps[last], 100*c.fill[last])
	if c.dir == "" {
		return nil
	}
	var b strings.Builder
	b.WriteString("step,loss,replay_fill,epsilon\n")
	for i := range c.steps {
		fmt.Fprintf(&b, "%d,%.6f,%.4f,%.6f\n", c.steps[i], c.loss[i], c.fill[i], c.eps[i])
	}
	if err := writeString(filepath.Join(c.dir, "training_curves.csv"), b.String()); err != nil {
		return err
	}
	b.Reset()
	b.WriteString("step\n")
	for _, s := range c.syncs {
		fmt.Fprintf(&b, "%d\n", s)
	}
	if err := writeString(filepath.Join(c.dir, "target_syncs.csv"), b.String()); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "telemetry written to %s\n", c.dir)
	return nil
}
