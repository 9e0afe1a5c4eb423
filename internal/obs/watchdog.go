package obs

import (
	"fmt"

	"mlnoc/internal/noc"
)

// AlertKind classifies a watchdog alert.
type AlertKind string

// Watchdog alert kinds.
const (
	// AlertStarvation flags an input-buffer head message whose local age
	// exceeded the configured threshold — the pathology Algorithm 2's
	// local-age override exists to bound.
	AlertStarvation AlertKind = "starvation"
	// AlertLivelock flags a window of cycles with zero deliveries while
	// messages were in flight.
	AlertLivelock AlertKind = "livelock"
	// AlertFaultBlackhole flags an over-age head message that is stuck
	// because of an injected fault — its route is a dead link or its
	// destination is unreachable — rather than because the
	// arbitration policy starved it. Telling the two apart matters when
	// judging a policy under fault injection.
	AlertFaultBlackhole AlertKind = "fault-blackhole"
)

// Alert is one structured watchdog finding.
type Alert struct {
	Kind  AlertKind `json:"kind"`
	Cycle int64     `json:"cycle"`
	// Starvation fields: the offending buffer and head message.
	Router int    `json:"router,omitempty"`
	Port   string `json:"port,omitempty"`
	VC     int    `json:"vc,omitempty"`
	Age    int64  `json:"age,omitempty"`
	MsgID  uint64 `json:"msg_id,omitempty"`
	// Livelock fields: the stalled window and the traffic stuck inside it.
	Window   int64 `json:"window,omitempty"`
	InFlight int64 `json:"in_flight,omitempty"`
}

// String formats the alert for logs.
func (a Alert) String() string {
	switch a.Kind {
	case AlertStarvation:
		return fmt.Sprintf("cycle %d: starvation at router#%d %s vc%d: msg#%d head age %d",
			a.Cycle, a.Router, a.Port, a.VC, a.MsgID, a.Age)
	case AlertLivelock:
		return fmt.Sprintf("cycle %d: livelock: no deliveries for %d cycles with %d messages in flight",
			a.Cycle, a.Window, a.InFlight)
	case AlertFaultBlackhole:
		return fmt.Sprintf("cycle %d: fault-blackhole at router#%d %s vc%d: msg#%d head age %d (stuck on a fault, not starved)",
			a.Cycle, a.Router, a.Port, a.VC, a.MsgID, a.Age)
	}
	return fmt.Sprintf("cycle %d: %s", a.Cycle, a.Kind)
}

// WatchdogConfig parameterizes a Watchdog.
type WatchdogConfig struct {
	// Threshold flags any input-buffer head message older (in local age)
	// than this many cycles, and any window of at least this many cycles
	// with zero deliveries while messages are in flight. 0 disables both
	// checks.
	Threshold int64
	// OnAlert, if non-nil, runs for every alert, inside Network.Step.
	OnAlert func(Alert)
}

// maxAlerts bounds a watchdog's recorded alert list; further alerts are
// counted as suppressed but still reach OnAlert.
const maxAlerts = 64

// Watchdog monitors one network for starvation (over-age buffer heads) and
// livelock (delivery silence while traffic is in flight). Create and install
// one with AttachWatchdog.
type Watchdog struct {
	net        *noc.Network
	cfg        WatchdogConfig
	checkEvery int64 // scan period: 64, or the threshold when shorter

	alerts     []Alert
	suppressed int64

	// starvation dedup: 1 + ID of the last flagged head message per
	// (router, port); 0 means nothing flagged (message IDs may be 0).
	flagged [][noc.MaxPorts]uint64

	// livelock progress tracking.
	lastDelivered int64
	lastProgress  int64 // cycle of the last observed delivery (or scan reset)
}

// AttachWatchdog creates a Watchdog for net and installs its OnCycle hook.
func AttachWatchdog(net *noc.Network, cfg WatchdogConfig) *Watchdog {
	w := &Watchdog{
		net:           net,
		cfg:           cfg,
		checkEvery:    min(64, max(1, cfg.Threshold)),
		flagged:       make([][noc.MaxPorts]uint64, len(net.Routers())),
		lastDelivered: net.Stats().Delivered,
		lastProgress:  net.Cycle(),
	}
	net.AddOnCycle(w.onCycle)
	return w
}

// Alerts returns the recorded alerts in detection order.
func (w *Watchdog) Alerts() []Alert { return w.alerts }

// Suppressed returns the number of alerts beyond the recording cap.
func (w *Watchdog) Suppressed() int64 { return w.suppressed }

// Tripped reports whether any alert fired.
func (w *Watchdog) Tripped() bool { return len(w.alerts) > 0 || w.suppressed > 0 }

// Summary renders the alerts as one line per alert, or "" when clean.
func (w *Watchdog) Summary() string {
	if !w.Tripped() {
		return ""
	}
	s := ""
	for _, a := range w.alerts {
		s += a.String() + "\n"
	}
	if w.suppressed > 0 {
		s += fmt.Sprintf("(%d further alerts suppressed)\n", w.suppressed)
	}
	return s
}

func (w *Watchdog) raise(a Alert) {
	if len(w.alerts) < maxAlerts {
		w.alerts = append(w.alerts, a)
	} else {
		w.suppressed++
	}
	if w.cfg.OnAlert != nil {
		w.cfg.OnAlert(a)
	}
}

func (w *Watchdog) onCycle(net *noc.Network) {
	now := net.Cycle()
	if w.cfg.Threshold <= 0 || now%w.checkEvery != 0 {
		return
	}
	w.checkLivelock(net, now)
	w.checkStarvation(net, now)
}

func (w *Watchdog) checkLivelock(net *noc.Network, now int64) {
	delivered := net.Stats().Delivered
	if delivered != w.lastDelivered {
		// Progress (or a stats reset); restart the window.
		w.lastDelivered = delivered
		w.lastProgress = now
		return
	}
	if net.InFlight() == 0 {
		w.lastProgress = now
		return
	}
	if window := now - w.lastProgress; window >= w.cfg.Threshold {
		w.raise(Alert{
			Kind:     AlertLivelock,
			Cycle:    now,
			Window:   window,
			InFlight: net.InFlight(),
		})
		w.lastProgress = now // re-arm instead of alerting every scan
	}
}

func (w *Watchdog) checkStarvation(net *noc.Network, now int64) {
	for i, r := range net.Routers() {
		for p := noc.PortID(0); p < noc.MaxPorts; p++ {
			if !r.HasPort(p) {
				continue
			}
			for vc := 0; vc < r.NumVCs(); vc++ {
				m := r.Buffer(p, vc).Head()
				if m == nil || m.LocalAge(now) <= w.cfg.Threshold {
					continue
				}
				// One alert per stuck message per port: re-alert only when a
				// different message is stuck.
				if w.flagged[i][p] == m.ID+1 {
					continue
				}
				w.flagged[i][p] = m.ID + 1
				kind := AlertStarvation
				if net.Faulty() {
					// Distinguish policy starvation from fault damage: a head
					// is blackholed (not starved) when its route crosses a
					// dead link or no route exists.
					if out := r.Route(m); out == noc.RouteUnreachable || !r.LinkUp(out) {
						kind = AlertFaultBlackhole
					}
				}
				w.raise(Alert{
					Kind:   kind,
					Cycle:  now,
					Router: r.ID(),
					Port:   p.String(),
					VC:     vc,
					Age:    m.LocalAge(now),
					MsgID:  m.ID,
				})
			}
		}
	}
}

// SuiteConfig parameterizes an observability Suite.
type SuiteConfig struct {
	// SampleEvery is the collector sampling period in cycles (<= 1 samples
	// every cycle).
	SampleEvery int64
	// Watchdog, if non-nil, also attaches a watchdog with this config.
	Watchdog *WatchdogConfig
}

// Suite bundles the collector and optional watchdog attached to one network.
type Suite struct {
	Collector *Collector
	Watchdog  *Watchdog // nil when not configured
}

// Attach installs a full observability suite on net.
func Attach(net *noc.Network, cfg SuiteConfig) *Suite {
	s := &Suite{Collector: AttachCollector(net, cfg.SampleEvery)}
	if cfg.Watchdog != nil {
		s.Watchdog = AttachWatchdog(net, *cfg.Watchdog)
	}
	return s
}

// Snapshot exports the collector counters with any watchdog alerts merged in.
func (s *Suite) Snapshot() *Snapshot {
	snap := s.Collector.Snapshot()
	if s.Watchdog != nil {
		snap.Alerts = append([]Alert(nil), s.Watchdog.Alerts()...)
		snap.SuppressedAlerts = s.Watchdog.Suppressed()
	}
	return snap
}
