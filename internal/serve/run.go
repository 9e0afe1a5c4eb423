package serve

import (
	"context"
	"encoding/json"
	"fmt"

	"mlnoc/internal/experiments"
	"mlnoc/internal/viz"
)

// resultDoc is the JSON result payload served by GET /jobs/{id}/result. It
// is built from deterministic renderings of the experiment results, then
// marshalled with sorted map keys (encoding/json sorts map keys), so the
// same job always produces byte-identical payloads — the property the cache
// test pins.
type resultDoc struct {
	Hash     string            `json:"hash"`
	Type     string            `json:"type"`
	Seed     int64             `json:"seed"`
	Engine   string            `json:"engine"`
	Rendered string            `json:"rendered"`
	CSV      map[string]string `json:"csv,omitempty"`
}

// Execute runs one validated job spec against the experiments engine,
// forwarding per-cell telemetry through tel (which may be nil). It is the
// production runFunc; tests substitute stubs through Config.Runner.
func Execute(ctx context.Context, spec *Spec, tel *experiments.Telemetry) ([]byte, error) {
	sc := spec.ResolveScale()
	doc := resultDoc{
		Hash:   spec.Hash(),
		Type:   spec.Type,
		Seed:   sc.Seed,
		Engine: EngineVersion,
		CSV:    map[string]string{},
	}
	switch spec.Type {
	case TypeSweep:
		switch spec.Sweep.Experiment {
		case "exec":
			r, err := experiments.ExecSweepCtx(ctx, sc, spec.Sweep.TrainNN, tel)
			if err != nil {
				return nil, err
			}
			doc.Rendered = r.RenderAvg() + "\n" + r.RenderTail()
			doc.CSV["fig9_avg.csv"] = r.CSVAvg()
			doc.CSV["fig10_tail.csv"] = r.CSVTail()
		case "mix":
			r, err := experiments.MixedWorkloadsCtx(ctx, sc, spec.Sweep.TrainNN, tel)
			if err != nil {
				return nil, err
			}
			doc.Rendered = r.Render()
			doc.CSV["fig11_mixes.csv"] = r.CSV()
		case "ablation":
			r, err := experiments.AblationCtx(ctx, sc, tel)
			if err != nil {
				return nil, err
			}
			doc.Rendered = r.Render()
			doc.CSV["ablation.csv"] = r.CSV()
		default:
			return nil, fmt.Errorf("unknown sweep experiment %q", spec.Sweep.Experiment)
		}
	case TypeTrain:
		agent, err := experiments.TrainAPUCtx(ctx, sc)
		if err != nil {
			return nil, err
		}
		agent.Freeze()
		h := experiments.APUHeatmapFromAgent(agent)
		doc.Rendered = experiments.RenderAPUHeatmap(h)
		doc.CSV["fig7_heatmap.csv"] = viz.HeatmapCSV(h.RowLabels, h.ColLabels, h.Abs)
	case TypeFault:
		r, err := experiments.FaultSweepRatesCtx(ctx, sc, tel, spec.effectiveRates())
		if err != nil {
			return nil, err
		}
		doc.Rendered = r.Render()
		doc.CSV["faults_mesh.csv"] = r.CSVMesh()
		doc.CSV["faults_apu.csv"] = r.CSVAPU()
	case TypeQuant:
		// QuantStudy has no per-cell structure to cancel between; honor a
		// cancellation that lands before it starts.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := experiments.QuantStudy(spec.effectiveQuantSize(), sc)
		doc.Rendered = r.Render()
		doc.CSV["quant_fidelity.csv"] = r.CSV()
	case TypeMesh:
		// Only the deterministic outcome is rendered: wall-clock throughput
		// depends on the machine, which is not in the job hash, and the cache
		// contract is byte-identical payloads per hash.
		r, err := experiments.ScalingStudyCtx(ctx, spec.effectiveMeshSizes(), nil, spec.meshTorus(), sc)
		if err != nil {
			return nil, err
		}
		doc.Rendered = r.RenderInvariant()
		doc.CSV["scaling_invariant.csv"] = r.InvariantCSV()
	default:
		return nil, fmt.Errorf("unknown job type %q", spec.Type)
	}
	if len(doc.CSV) == 0 {
		doc.CSV = nil
	}
	return json.Marshal(doc)
}
