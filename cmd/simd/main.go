// Command simd is the simulation-as-a-service daemon: it serves the
// deterministic experiment engine over HTTP with a job queue, a bounded
// worker pool and a content-hash result cache.
//
// Usage:
//
//	simd [-addr :8723] [-workers N] [-queue N] [-cache-entries N]
//	     [-cache-dir DIR] [-watchdog N]
//
// Endpoints:
//
//	POST /jobs              submit a JSON job spec (202, or 200 on cache hit)
//	GET  /jobs              list jobs
//	GET  /jobs/{id}         status + progress
//	GET  /jobs/{id}/result  result payload (rendered tables + CSV artifacts)
//	GET  /jobs/{id}/stream  live SSE feed (progress, obs snapshots, alerts)
//	POST /jobs/{id}/cancel  cancel a queued or running job
//	GET  /healthz           liveness
//	GET  /readyz            readiness (drain / queue / watchdog state)
//	GET  /metrics           Prometheus/OpenMetrics exposition
//	GET  /dashboard         self-contained live HTML dashboard
//
// The first SIGINT/SIGTERM drains gracefully (running jobs finish, queued
// jobs are cancelled, new submissions get 503); a second signal cancels
// running jobs too.
package main

import (
	"context"
	"flag"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mlnoc/internal/cliutil"
	"mlnoc/internal/serve"
	"mlnoc/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8723", "HTTP listen address")
	workers := flag.Int("workers", 0, "max simultaneously running jobs (0 = NumCPU)")
	queueDepth := flag.Int("queue", 64, "max queued jobs before submissions get 503")
	cacheEntries := flag.Int("cache-entries", 128, "in-memory result cache size (jobs)")
	cacheDir := flag.String("cache-dir", "", "spill results to this directory (survives restarts)")
	watchdog := flag.Int64("watchdog", 0,
		"attach a watchdog to every job's cells: flag head messages older than N cycles and N-cycle zero-delivery windows (0 = off)")
	var logCfg cliutil.LogConfig
	cliutil.AddLogFlags(flag.CommandLine, &logCfg)
	flag.Parse()

	log := cliutil.SetupLogger("simd", &logCfg)
	var check cliutil.Check
	check.NonNegative("-workers", int64(*workers))
	check.Positive("-queue", int64(*queueDepth))
	check.Positive("-cache-entries", int64(*cacheEntries))
	check.NonNegative("-watchdog", *watchdog)
	check.Exit("simd")

	if *cacheDir != "" {
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			cliutil.Fatal("simd", "cache dir: %v", err)
		}
	}

	cfg := serve.Config{
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		CacheEntries: *cacheEntries,
		CacheDir:     *cacheDir,
		Watchdog:     *watchdog,
		Logger:       log,
		Registry:     telemetry.Default,
	}
	srv := serve.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cliutil.Fatal("simd", "listen: %v", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			cliutil.Fatal("simd", "serve: %v", err)
		}
	}()
	log.Info("listening", "addr", ln.Addr().String(),
		"workers", cfg.Workers, "queue", cfg.QueueDepth)

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	<-sigs
	log.Info("draining: running jobs finish, signal again to cancel them")
	go func() {
		<-sigs
		log.Warn("cancelling running jobs")
		srv.Kill()
	}()
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	log.Info("drained")
}
