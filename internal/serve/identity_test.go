package serve

import (
	"bytes"
	"context"
	"testing"
	"time"

	"mlnoc/internal/experiments"
	"mlnoc/internal/obs"
	"mlnoc/internal/telemetry"
)

// TestInstrumentedRunBitIdentity pins the observability contract: telemetry
// is passive. A run under full instrumentation — a per-cell hook reading
// each cell's obs snapshot, a watchdog, and metrics counters firing —
// must produce a payload byte-identical to a bare run of the same spec.
// This is also what makes the result cache sound: a cached payload produced
// by an instrumented daemon is exactly what an uninstrumented rerun would
// compute.
func TestInstrumentedRunBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (tiny) simulation sweep twice")
	}
	spec, err := ParseSpec([]byte(`{"type":"sweep","sweep":{"experiment":"ablation"},` +
		`"scale":{"op_scale":0.1,"warmup_cycles":200,"measure_cycles":400}}`))
	if err != nil {
		t.Fatal(err)
	}

	bare, err := Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	met := newMetrics(reg)
	progress := reg.Counter("test_progress_calls", "").With()
	snapshots := reg.Counter("test_snapshots", "").With()
	tel := &experiments.Telemetry{
		Watchdog: &obs.WatchdogConfig{
			Threshold: 10_000,
			OnAlert:   func(a obs.Alert) { met.watchdogAlert(a.Kind) },
		},
		OnCell: func(c experiments.Cell) {
			progress.Inc()
			if c.Suite.Snapshot().Delivered > 0 {
				snapshots.Inc()
			}
		},
	}
	start := time.Now()
	instrumented, err := Execute(context.Background(), spec, tel)
	if err != nil {
		t.Fatal(err)
	}
	met.jobFinished(spec.Type, StateDone, time.Since(start))

	if !bytes.Equal(bare, instrumented) {
		t.Fatalf("instrumented payload differs from bare payload:\nbare: %d bytes\ninstrumented: %d bytes",
			len(bare), len(instrumented))
	}
	if progress.Value() == 0 || snapshots.Value() == 0 {
		t.Fatalf("instrumentation did not fire (progress=%d snapshots=%d) — identity check is vacuous",
			progress.Value(), snapshots.Value())
	}
}
