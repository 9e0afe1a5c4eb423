package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// span is one timed interval at a layer boundary. A window is a root span;
// its children are per-window aggregates of the calls into one layer (total
// time and call count), because a span per call would cost more than the
// calls. Self time of a span is Dur minus the Dur of its children.
type span struct {
	Name   string
	Start  int64 // ns since process start; aggregates are laid end to end inside their parent
	Dur    int64
	Parent int // index into tracer.spans, -1 for a root
	Calls  int64
}

// tracer keeps the spans of a traced run in memory until the run ends.
type tracer struct {
	spans []span
	// timerNS is the measured cost of one clock read. Every timed call costs
	// two reads, one of which lands inside the interval it measures; Layers
	// subtracts that, or the cheapest layers would be mostly clock.
	timerNS float64
	cur     int
}

func newTracer() *tracer {
	return &tracer{spans: make([]span, 0, 1<<14), timerNS: clockCost(), cur: -1}
}

// clockCost is the fastest observed mean cost of now() over batches of reads.
func clockCost() float64 {
	const batch = 2000
	best := int64(1 << 62)
	for b := 0; b < 50; b++ {
		t0 := now()
		for i := 0; i < batch; i++ {
			now()
		}
		if d := now() - t0; d < best {
			best = d
		}
	}
	return float64(best) / batch
}

// open starts the root span of a window.
func (t *tracer) open(start int64) int {
	t.spans = append(t.spans, span{Name: "window", Start: start, Parent: -1, Calls: 1})
	t.cur = len(t.spans) - 1
	return t.cur
}

// close ends a root span and returns its duration.
func (t *tracer) close(root int, end int64) int64 {
	t.spans[root].Dur = end - t.spans[root].Start
	t.cur = -1
	return t.spans[root].Dur
}

// child records an aggregate under parent and returns its index. Siblings
// are placed one after the other from the parent's start.
func (t *tracer) child(parent int, name string, dur, calls int64) int {
	start := t.spans[parent].Start
	for i := len(t.spans) - 1; i > parent; i-- {
		if t.spans[i].Parent == parent {
			start = t.spans[i].Start + t.spans[i].Dur
			break
		}
	}
	t.spans = append(t.spans, span{Name: name, Start: start, Dur: dur, Parent: parent, Calls: calls})
	return len(t.spans) - 1
}

// fastTotals sums, by span name, the aggregates recorded under the fastest
// max(10, W/500) windows: the layer times of the same undisturbed windows
// throughput is estimated from. Totals over all windows would mostly measure
// what else the host was doing.
func (t *tracer) fastTotals() map[string]callTimer {
	type win struct{ root, end int }
	var wins []win
	for i, s := range t.spans {
		if s.Parent < 0 {
			if n := len(wins); n > 0 {
				wins[n-1].end = i
			}
			wins = append(wins, win{root: i, end: len(t.spans)})
		}
	}
	sort.Slice(wins, func(i, j int) bool { return t.spans[wins[i].root].Dur < t.spans[wins[j].root].Dur })
	totals := map[string]callTimer{}
	for _, w := range wins[:fastCount(len(wins))] {
		for _, s := range t.spans[w.root:w.end] {
			c := totals[s.Name]
			c.ns += s.Dur
			c.calls += s.Calls
			totals[s.Name] = c
		}
	}
	return totals
}

// selfTimes sums self time (span minus children) by span name.
func (t *tracer) selfTimes() map[string]int64 {
	self := map[string]int64{}
	for _, s := range t.spans {
		self[s.Name] += s.Dur
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= s.Dur
		}
	}
	return self
}

// traceEvent is one Chrome trace-event ("X" = complete event, times in us).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeFile writes the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto). Each event carries its span index, parent index and call count.
func (t *tracer) writeFile(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":%q,\"timer_ns\":%g},\"traceEvents\":[\n", workload, t.timerNS)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteString(",")
		}
		if err := enc.Encode(traceEvent{
			Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3, PID: 1, TID: 1,
			Args: map[string]any{"id": i, "parent": s.Parent, "calls": s.Calls},
		}); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes prints the share of traced window time spent in each span's
// own code, largest first.
func (t *tracer) printSelfTimes() {
	self := t.selfTimes()
	var total int64
	names := make([]string, 0, len(self))
	for n, v := range self {
		names = append(names, n)
		total += v
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Printf("span %-16s self %10.3f ms  %5.1f%%\n", n, float64(self[n])/1e6, float64(self[n])/float64(total)*100)
	}
}
