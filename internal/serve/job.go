package serve

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// State is a job lifecycle state. The machine is strictly forward:
//
//	queued -> running -> done | failed | cancelled
//	queued -> cancelled            (cancel or drain before a worker claims it)
//	queued -> done (cached)        (cache hit: the job never enters the queue)
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether st is an end state.
func (st State) terminal() bool {
	return st == StateDone || st == StateFailed || st == StateCancelled
}

// Progress is a job's sweep position: cells finished out of the total, and
// the label of the last finished cell ("workload/policy").
type Progress struct {
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Label string `json:"label,omitempty"`
}

// Event is one item on a job's stream: lifecycle transitions, per-cell
// progress, per-cell obs snapshot summaries, and watchdog alerts. Kind is
// the SSE event name; Data is its JSON payload.
type Event struct {
	Kind string
	Data any
}

// Job is one submitted unit of work. All exported access goes through
// methods; the zero value is not usable — Server mints jobs.
type Job struct {
	// ID is the per-daemon submission ID ("j000001"); Hash is the canonical
	// content hash shared by every submission of the same work. CorrID is the
	// correlation ID threaded from HTTP submission through pool execution,
	// watchdog alerts and SSE events — client-supplied (X-Correlation-ID) or
	// minted as "<id>-<hash prefix>". It identifies the submission, not the
	// work, so it never enters the spec hash or the cached result payload.
	ID     string
	Hash   string
	CorrID string
	Spec   *Spec
	seq    int // submission number, the N of ID

	mu        sync.Mutex
	state     State
	cached    bool
	errMsg    string
	result    []byte
	progress  Progress
	alerts    []string // the first maxJobAlerts watchdog alerts
	dropped   int64    // the alerts past them, counted only
	created   time.Time
	started   time.Time
	finished  time.Time
	cancelFn  context.CancelFunc
	cancelled bool // cancel requested (maybe before the worker built the context)
	subs      map[chan Event]struct{}
}

// newJob creates the queued job of submission seq; hash is spec.Hash(), which
// the caller has computed for the cache lookup already.
func newJob(seq int, hash string, spec *Spec, now time.Time) *Job {
	return &Job{
		ID:      fmt.Sprintf("j%06d", seq),
		Hash:    hash,
		Spec:    spec,
		seq:     seq,
		state:   StateQueued,
		created: now,
		subs:    make(map[chan Event]struct{}),
	}
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cached reports whether the job was answered from the result cache.
func (j *Job) Cached() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cached
}

// Result returns the result payload and true once the job is done.
func (j *Job) Result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == StateDone
}

// Alerts returns the watchdog alerts raised by the job's cells so far.
func (j *Job) Alerts() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.alerts...)
}

// StatusDoc is the JSON body of GET /jobs/{id}.
type StatusDoc struct {
	ID       string    `json:"id"`
	CorrID   string    `json:"corr_id,omitempty"`
	Hash     string    `json:"hash"`
	Type     string    `json:"type"`
	State    State     `json:"state"`
	Cached   bool      `json:"cached"`
	Error    string    `json:"error,omitempty"`
	Progress *Progress `json:"progress,omitempty"`
	Alerts   []string  `json:"alerts,omitempty"`
	Created  string    `json:"created"`
	Started  string    `json:"started,omitempty"`
	Finished string    `json:"finished,omitempty"`
	// SuppressedAlerts counts the alerts raised past the first maxJobAlerts.
	SuppressedAlerts int64 `json:"suppressed_alerts,omitempty"`
}

// Status exports the job's current state for the API.
func (j *Job) Status() StatusDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() StatusDoc {
	doc := StatusDoc{
		ID:      j.ID,
		CorrID:  j.CorrID,
		Hash:    j.Hash,
		Type:    j.Spec.Type,
		State:   j.state,
		Cached:  j.cached,
		Error:   j.errMsg,
		Created: j.created.UTC().Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		doc.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		doc.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.progress.Total > 0 {
		p := j.progress
		doc.Progress = &p
	}
	if len(j.alerts) > 0 {
		doc.Alerts = append([]string(nil), j.alerts...)
	}
	doc.SuppressedAlerts = j.dropped
	return doc
}

// publishLocked fans ev out to every subscriber; slow subscribers drop
// events rather than block a simulation worker (the stream is a live view,
// the status endpoint is the source of truth).
func (j *Job) publishLocked(ev Event) {
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// closeSubsLocked ends every stream after a terminal transition.
func (j *Job) closeSubsLocked() {
	for ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}

// Subscribe attaches a live event stream. The first event replays the
// current status so late subscribers see the state they joined at; a
// terminal job closes the channel right after that replay. The returned
// cancel function detaches (idempotent, safe after close).
func (j *Job) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 64)
	j.mu.Lock()
	ch <- Event{Kind: "status", Data: j.statusLocked()}
	if j.state.terminal() || j.subs == nil {
		close(ch)
		j.mu.Unlock()
		return ch, func() {}
	}
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
	}
}

// start transitions queued -> running and installs the worker's cancel
// handle. It returns false when the job was cancelled before a worker
// claimed it (the worker then skips it).
func (j *Job) start(cancel context.CancelFunc, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued || j.cancelled {
		return false
	}
	j.state = StateRunning
	j.started = now
	j.cancelFn = cancel
	j.publishLocked(Event{Kind: "status", Data: j.statusLocked()})
	return true
}

// Cancel requests cancellation: a queued job is finalized immediately, a
// running job has its context cancelled and finalizes when the sweep's
// cancellation check fires. Terminal jobs are unaffected.
func (j *Job) Cancel(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() || j.cancelled {
		return
	}
	j.cancelled = true
	if j.state == StateQueued {
		j.finishLocked(StateCancelled, nil, "cancelled before start", now)
		return
	}
	if j.cancelFn != nil {
		j.cancelFn()
	}
}

// setProgress records a finished sweep cell and streams it.
func (j *Job) setProgress(done, total int, label string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress = Progress{Done: done, Total: total, Label: label}
	j.publishLocked(Event{Kind: "progress", Data: j.progress})
}

// maxJobAlerts bounds the alerts a job keeps: a starving sweep raises
// hundreds of thousands, and every status document copies the list.
const maxJobAlerts = 64

// addAlert records a watchdog alert, or counts it once the job keeps
// maxJobAlerts, and streams it. The alert list is the readiness signal: a
// running job with alerts marks the daemon unready.
func (j *Job) addAlert(s string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.alerts) < maxJobAlerts {
		j.alerts = append(j.alerts, s)
	} else {
		j.dropped++
	}
	j.publishLocked(Event{Kind: "alert", Data: s})
}

// publish streams a free-form event (obs snapshot summaries).
func (j *Job) publish(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.publishLocked(ev)
}

// finish finalizes the job into a terminal state, streams the final status,
// and closes every subscriber.
func (j *Job) finish(st State, result []byte, errMsg string, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.finishLocked(st, result, errMsg, now)
}

func (j *Job) finishLocked(st State, result []byte, errMsg string, now time.Time) {
	j.state = st
	j.result = result
	j.errMsg = errMsg
	j.finished = now
	j.publishLocked(Event{Kind: "status", Data: j.statusLocked()})
	j.closeSubsLocked()
}

// completeCached finalizes a freshly minted job as a cache hit.
func (j *Job) completeCached(payload []byte, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cached = true
	j.finishLocked(StateDone, payload, "", now)
}
