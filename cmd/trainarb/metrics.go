package main

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"

	"mlnoc/internal/telemetry"
)

// trainMetrics owns the mlnoc_train_* series a long run exports on the
// -metrics-addr sidecar, which curves sets. All handles are resolved at
// registration; setting them in the training loop is then pure atomic
// stores, so the run is bit-identical with or without a scraper attached.
type trainMetrics struct {
	loss         *telemetry.Gauge
	epsilon      *telemetry.Gauge
	replayFill   *telemetry.Gauge
	steps        *telemetry.Gauge
	targetSyncs  *telemetry.Counter
	epoch        *telemetry.Gauge
	epochLatency *telemetry.Gauge
}

func newTrainMetrics(reg *telemetry.Registry) *trainMetrics {
	return &trainMetrics{
		loss:         reg.Gauge("mlnoc_train_loss", "mean squared TD error of the last recorded batch").With(),
		epsilon:      reg.Gauge("mlnoc_train_epsilon", "exploration rate at the last recorded batch").With(),
		replayFill:   reg.Gauge("mlnoc_train_replay_fill", "replay-memory occupancy fraction in [0,1]").With(),
		steps:        reg.Gauge("mlnoc_train_steps", "SGD steps taken so far").With(),
		targetSyncs:  reg.Counter("mlnoc_train_target_syncs", "target-network refreshes from the online network").With(),
		epoch:        reg.Gauge("mlnoc_train_epoch", "last completed training epoch (1-based)").With(),
		epochLatency: reg.Gauge("mlnoc_train_epoch_latency_cycles", "average delivered-message latency of the last epoch").With(),
	}
}

// startMetricsSidecar serves /metrics and /debug/pprof on addr in the
// background for the lifetime of the run. It returns the bound address (so
// ":0" is usable in tests) and a shutdown func.
func startMetricsSidecar(addr string, reg *telemetry.Registry, log *slog.Logger) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/pprof/", http.DefaultServeMux) // net/http/pprof's handlers, registered by cmdline
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != http.ErrServerClosed {
			log.Error("metrics sidecar stopped", "err", err)
		}
	}()
	log.Info("metrics sidecar listening", "addr", ln.Addr().String())
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
