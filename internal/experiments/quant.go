package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"mlnoc/internal/core"
	"mlnoc/internal/nn"
	"mlnoc/internal/noc"
	"mlnoc/internal/synth"
	"mlnoc/internal/traffic"
	"mlnoc/internal/viz"
)

// This file is the software half of the paper's Section 4.8 deployment story:
// the NN policy runs on an INT8 MAC-array engine (costed by
// internal/synth.NNEngine in Table 3), not on float64 hardware. QuantStudy
// trains the mesh agent, compiles its network to the nn.Quantized INT8 engine
// with workload-calibrated activation scales, and answers the question the
// paper's engine design implicitly assumes away: does 8-bit inference change
// the decisions, and if so does it change the delivered latency?

// quantProbeLimit caps how many arbitration states the calibration run
// records. Half calibrate the quantizer, half evaluate fidelity.
const quantProbeLimit = 2048

// stateProbe wraps a frozen agent as a noc.Policy, recording a copy of each
// arbitration state vector and the competing buffer slots before delegating
// the decision. It is how the study gathers *workload-representative*
// calibration states — random vectors would miscalibrate the activation
// scales, since real states are sparse and feature-normalized.
type stateProbe struct {
	agent  *core.Agent
	states [][]float64
	slots  [][]int
}

// Name implements noc.Policy.
func (p *stateProbe) Name() string { return p.agent.Name() }

// Select implements noc.Policy.
func (p *stateProbe) Select(ctx *noc.ArbContext, cands []noc.Candidate) int {
	if len(p.states) < quantProbeLimit {
		s := make([]float64, p.agent.Spec.InputSize())
		p.agent.Spec.BuildStateInto(s, ctx.Net, ctx.Cycle, cands)
		sl := make([]int, len(cands))
		for i, c := range cands {
			sl[i] = p.agent.Spec.Slot(c.Port, c.VC)
		}
		p.states = append(p.states, s)
		p.slots = append(p.slots, sl)
	}
	return p.agent.Select(ctx, cands)
}

// QuantRunDelta compares the float and INT8 policies end to end at one
// injection rate.
type QuantRunDelta struct {
	Rate            float64
	FloatAvg        float64 // avg latency, float64 inference (cycles)
	QuantAvg        float64 // avg latency, INT8 inference (cycles)
	FloatThroughput float64 // delivered messages per cycle
	QuantThroughput float64
}

// QuantStudyResult is the outcome of the quantization-fidelity study.
type QuantStudyResult struct {
	Size int
	// LayerSizes is the deployed network shape ([in, hidden, out]).
	LayerSizes []int
	// MACs is the INT8 multiply-accumulates per inference.
	MACs int
	// Decisions is the number of recorded arbitration states the fidelity
	// numbers below are computed over (the evaluation half of the probe).
	Decisions int
	// Agreement is the fraction of recorded decisions where the INT8 argmax
	// over the competing buffer slots equals the float argmax — "would the
	// MAC-array engine grant the same buffer".
	Agreement float64
	// QErrMean and QErrMax summarize |Q_int8 - Q_float| over the competing
	// slots of the recorded decisions.
	QErrMean, QErrMax float64
	// QRange is the max |Q_float| over the same decisions, the scale against
	// which the errors should be read.
	QRange float64
	// Deltas holds end-to-end float-vs-INT8 policy comparisons.
	Deltas []QuantRunDelta
	// Engine is the Table 3 hardware cost of this network on the paper's
	// MAC-array circuit (internal/synth.NNEngine, 32nm library).
	Engine synth.Report
}

// QuantStudy trains the size x size mesh agent (as MeshStudy does), freezes
// it, compiles the network to the INT8 engine with states recorded from the
// live workload, and measures policy fidelity at three levels: per-decision
// action agreement, Q-value error, and end-to-end latency/throughput deltas.
func QuantStudy(size int, sc Scale) *QuantStudyResult {
	mesh := UniformMesh(size, 1, sc.Seed+1)
	tr, _ := core.Train(context.TODO(), meshTrainSpec(mesh, sc)) // cannot fail: Env set, TODO never cancels
	tr.Agent.Freeze()
	return QuantEval(tr.Agent, mesh, sc)
}

// QuantEval compiles a frozen agent's network to the INT8 engine with states
// recorded from a live run on mesh, and measures fidelity. It is the
// evaluation half of QuantStudy, exported so cmd/trainarb can run the same
// study on a network it just trained.
func QuantEval(agent *core.Agent, mesh traffic.Mesh, sc Scale) *QuantStudyResult {
	net := agent.Net()

	// Record workload states by replaying the frozen policy once.
	probe := &stateProbe{agent: agent}
	mesh.Evaluate(probe, sc.WarmupCycles, sc.MeasureCycles)
	if len(probe.states) < 2 {
		panic("experiments: quant probe recorded too few arbitration states")
	}
	// Even-indexed states calibrate the quantizer; odd-indexed states (and
	// their competing slots) evaluate fidelity. The split keeps evaluation
	// out-of-calibration without a second simulation run.
	var calib, evalStates [][]float64
	var evalSlots [][]int
	for i, s := range probe.states {
		if i%2 == 0 {
			calib = append(calib, s)
		} else {
			evalStates = append(evalStates, s)
			evalSlots = append(evalSlots, probe.slots[i])
		}
	}
	q := nn.Quantize(net, calib)

	res := &QuantStudyResult{
		Size:       mesh.Width,
		LayerSizes: q.LayerSizes(),
		MACs:       q.MACs(),
		Decisions:  len(evalStates),
		Engine:     synth.Evaluate(synth.NNEngine(q.LayerSizes(), 2048), synth.Lib32nm),
	}

	// Per-decision fidelity: restricted argmax over the competing slots,
	// first-best tie-breaking exactly as Agent.Select does.
	agree := 0
	for d, s := range evalStates {
		qf := net.Forward(s)
		qqRow := q.Forward(s)
		slots := evalSlots[d]
		bf, bq := slots[0], slots[0]
		for _, sl := range slots[1:] {
			if qf[sl] > qf[bf] {
				bf = sl
			}
			if qqRow[sl] > qqRow[bq] {
				bq = sl
			}
		}
		if bf == bq {
			agree++
		}
		for _, sl := range slots {
			e := math.Abs(qqRow[sl] - qf[sl])
			res.QErrMean += e
			if e > res.QErrMax {
				res.QErrMax = e
			}
			if a := math.Abs(qf[sl]); a > res.QRange {
				res.QRange = a
			}
		}
	}
	nQ := 0
	for _, slots := range evalSlots {
		nQ += len(slots)
	}
	if nQ > 0 {
		res.QErrMean /= float64(nQ)
	}
	res.Agreement = float64(agree) / float64(len(evalStates))

	// End-to-end deltas: the same frozen weights deployed as float64 and as
	// INT8, at the training rate and at a lighter load. Each run gets fresh
	// agents (cloned nets / rebuilt engines): scratch is not shareable.
	for _, rate := range []float64{mesh.Rate, mesh.Rate / 2} {
		rmesh := mesh
		rmesh.Rate = rate
		fa := core.NewAgentWithNet(agent.Spec, net.Clone(), sc.Seed+7)
		fr := rmesh.Evaluate(fa, sc.WarmupCycles, sc.MeasureCycles)
		qa := core.NewAgentWithNet(agent.Spec, net.Clone(), sc.Seed+7)
		qa.Infer = nn.Quantize(net, calib)
		qr := rmesh.Evaluate(qa, sc.WarmupCycles, sc.MeasureCycles)
		res.Deltas = append(res.Deltas, QuantRunDelta{
			Rate:            rate,
			FloatAvg:        fr.AvgLatency,
			QuantAvg:        qr.AvgLatency,
			FloatThroughput: float64(fr.Delivered) / float64(fr.Cycles),
			QuantThroughput: float64(qr.Delivered) / float64(qr.Cycles),
		})
	}
	return res
}

// Render formats the study.
func (r *QuantStudyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "INT8 quantized inference fidelity (%dx%d mesh agent, net %v, %d MACs/inference)\n",
		r.Size, r.Size, r.LayerSizes, r.MACs)
	fmt.Fprintf(&b, "action agreement: %.1f%% over %d recorded arbitrations\n",
		100*r.Agreement, r.Decisions)
	fmt.Fprintf(&b, "Q-value error:    mean %.4g, max %.4g (float |Q| range %.4g)\n",
		r.QErrMean, r.QErrMax, r.QRange)
	rows := make([][]string, len(r.Deltas))
	for i, d := range r.Deltas {
		rows[i] = []string{
			fmt.Sprintf("%.3f", d.Rate),
			fmt.Sprintf("%.2f", d.FloatAvg),
			fmt.Sprintf("%.2f", d.QuantAvg),
			fmt.Sprintf("%+.2f%%", 100*(d.QuantAvg-d.FloatAvg)/d.FloatAvg),
			fmt.Sprintf("%.4f", d.FloatThroughput),
			fmt.Sprintf("%.4f", d.QuantThroughput),
		}
	}
	b.WriteString(viz.Table([]string{
		"inj rate", "float avg lat", "int8 avg lat", "lat delta",
		"float thpt", "int8 thpt"}, rows))
	fmt.Fprintf(&b, "Table 3 engine for this net: %s\n", r.Engine)
	return b.String()
}

// CSV exports the end-to-end deltas.
func (r *QuantStudyResult) CSV() string {
	labels := make([]string, len(r.Deltas))
	m := make([][]float64, len(r.Deltas))
	for i, d := range r.Deltas {
		labels[i] = fmt.Sprintf("%.3f", d.Rate)
		m[i] = []float64{d.FloatAvg, d.QuantAvg, d.FloatThroughput, d.QuantThroughput,
			r.Agreement, r.QErrMean, r.QErrMax}
	}
	return viz.MatrixCSV("rate", labels, []string{
		"float_avg_latency", "int8_avg_latency", "float_throughput",
		"int8_throughput", "action_agreement", "qerr_mean", "qerr_max"}, m)
}
