package serve

import (
	"time"

	"mlnoc/internal/obs"
	"mlnoc/internal/telemetry"
)

// metrics is the daemon's bridge onto the process telemetry registry. Every
// handle is resolved once at construction, so the hot paths (job finish,
// HTTP latency) are single atomic operations; point-in-time values (queue
// depth, busy workers, cache counters) are registered as callback families
// in Server.New, so a scrape always reads live state without the server
// pushing gauge updates.
//
// Job latency is histogrammed per job type from 20ms to ~20s and HTTP
// latency per route from 1ms to ~1s, both in seconds per Prometheus
// convention.
type metrics struct {
	reg       *telemetry.Registry
	submitted *telemetry.Counter
	finished  *telemetry.CounterVec   // labels: state, type
	jobLat    *telemetry.HistogramVec // label: type
	httpLat   *telemetry.HistogramVec // label: route
	alerts    *telemetry.CounterVec   // label: kind
}

func newMetrics(reg *telemetry.Registry) *metrics {
	m := &metrics{
		reg:       reg,
		submitted: reg.Counter("mlnoc_jobs_submitted", "job submissions accepted for processing").With(),
		finished:  reg.Counter("mlnoc_jobs_finished", "terminal job transitions by state and job type", "state", "type"),
		jobLat: reg.Histogram("mlnoc_job_latency_seconds", "job execution latency by job type",
			telemetry.ExponentialBuckets(0.02, 2, 11), "type"),
		httpLat: reg.Histogram("mlnoc_http_request_duration_seconds", "HTTP handler latency by route",
			telemetry.ExponentialBuckets(0.001, 2, 11), "route"),
		alerts: reg.Counter("mlnoc_watchdog_alerts", "watchdog alerts raised by running jobs, by classification", "kind"),
	}
	// Pre-touch every alert class so the family renders all series at zero
	// from the first scrape — dashboards and alert rules can rely on the
	// series existing before the first starvation happens.
	for _, kind := range []obs.AlertKind{obs.AlertStarvation, obs.AlertLivelock, obs.AlertFaultBlackhole} {
		m.alerts.With(string(kind)).Add(0)
	}
	return m
}

func (m *metrics) jobSubmitted() { m.submitted.Inc() }

// jobFinished records a terminal transition and, for done jobs, the
// execution latency under the job's type.
func (m *metrics) jobFinished(jobType string, st State, elapsed time.Duration) {
	m.finished.With(string(st), jobType).Inc()
	// Cache hits finish with zero elapsed time; recording them would fold
	// instant answers into the simulation-latency histogram.
	if st == StateDone && elapsed > 0 {
		m.jobLat.With(jobType).Observe(elapsed.Seconds())
	}
}

// watchdogAlert counts one alert under its classification.
func (m *metrics) watchdogAlert(kind obs.AlertKind) {
	m.alerts.With(string(kind)).Inc()
}
