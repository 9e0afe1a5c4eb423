package serve

import (
	"context"
	"encoding/json"
	"fmt"

	"mlnoc/internal/experiments"
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

// entries maps a job, by type and for sweeps by "sweep/<experiment>", to the
// experiments.Table entry it runs.
var entries = map[string]string{
	TypeSweep + "/exec":     "exec",
	TypeSweep + "/mix":      "fig11",
	TypeSweep + "/ablation": "ablation",
	TypeTrain:               "fig7",
	TypeFault:               "faults",
	TypeQuant:               "quant",
	TypeMesh:                "mesh",
}

// entry is the experiments.Table entry the job runs.
func (s *Spec) entry() string {
	if s.Type == TypeSweep {
		return entries[TypeSweep+"/"+s.Sweep.Experiment]
	}
	return entries[s.Type]
}

// Execute runs one validated job spec against the experiments engine,
// handing each sweep cell's network to cell (which may be nil). It is what
// the production runFunc runs; tests substitute stubs through Config.Runner.
func Execute(ctx context.Context, spec *Spec, cell experiments.CellHook) ([]byte, error) {
	e, ok := experiments.Lookup(spec.entry())
	if !ok {
		return nil, fmt.Errorf("no experiment runs job type %q", spec.Type)
	}
	res, err := e.Run(ctx, spec.input(cell))
	if err != nil {
		return nil, err
	}
	doc := resultDoc{
		Hash:     spec.Hash(),
		Type:     spec.Type,
		Seed:     spec.EffectiveSeed(),
		Engine:   EngineVersion,
		Rendered: res.Rendered,
	}
	if len(res.CSV) > 0 {
		doc.CSV = map[string]string{}
		for _, f := range res.CSV {
			doc.CSV[f.Name] = f.Content
		}
	}
	return json.Marshal(doc)
}
