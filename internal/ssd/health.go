package ssd

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Per-shard health: every member device of an Array carries a rolling
// fault window and a sticky state machine
//
//	healthy → suspect → failed → rebuilding → healthy
//
// fed by every read outcome the device produces. The serving layer
// consults the state (through the HealthReporter interface) to steer
// selection and recovery away from a sick drive *before* burning a read
// on it, instead of rediscovering the failure per-read; the rebuilder
// drives the failed → rebuilding → healthy half after streaming the
// shard onto a hot spare. Healthy ↔ suspect transitions are automatic
// (the window clears or fills); failed is entered automatically when the
// window saturates or manually via FailShard (the chaos hook), and is
// sticky — only a completed rebuild (or an explicit MarkHealthy) leaves
// it, because a drive that faulted its way to failed does not earn trust
// back by idling.

// ShardState is one shard's position in the health state machine.
type ShardState int32

const (
	// ShardHealthy serves reads normally.
	ShardHealthy ShardState = iota
	// ShardSuspect has a fault fraction above the suspect threshold:
	// still served, but selection prefers alternatives on ties.
	ShardSuspect
	// ShardFailed is declared dead: selection and recovery route around
	// it entirely, and a rebuild may begin.
	ShardFailed
	// ShardRebuilding is being streamed onto the hot spare; it is treated
	// like failed by the serving layer until the spare swaps in.
	ShardRebuilding
)

// String implements fmt.Stringer.
func (s ShardState) String() string {
	switch s {
	case ShardHealthy:
		return "healthy"
	case ShardSuspect:
		return "suspect"
	case ShardFailed:
		return "failed"
	case ShardRebuilding:
		return "rebuilding"
	}
	return fmt.Sprintf("ShardState(%d)", int32(s))
}

// MarshalText makes a state its name in JSON.
func (s ShardState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText reads a state's name back.
func (s *ShardState) UnmarshalText(text []byte) error {
	for st := ShardHealthy; st <= ShardRebuilding; st++ {
		if st.String() == string(text) {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("ssd: unknown shard state %q", text)
}

// Live reports whether a shard in this state should be offered reads by
// the serving layer (failed and rebuilding shards should not).
func (s ShardState) Live() bool { return s == ShardHealthy || s == ShardSuspect }

// HealthConfig parameterizes the per-shard fault windows.
type HealthConfig struct {
	// Window is how many recent reads each shard's rolling fault window
	// spans (default 128).
	Window int
	// SuspectThreshold is the fault fraction at or above which a healthy
	// shard turns suspect (default 0.25).
	SuspectThreshold float64
	// FailThreshold is the fault fraction at or above which a shard is
	// declared failed (default 0.75).
	FailThreshold float64
	// MinEvents is how many reads the window must cover before either
	// verdict is trusted — a cold window is healthy (default 16).
	MinEvents int
}

// withDefaults fills unset fields.
func (c HealthConfig) withDefaults() HealthConfig {
	if c.Window <= 0 {
		c.Window = 128
	}
	if c.SuspectThreshold <= 0 {
		c.SuspectThreshold = 0.25
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 0.75
	}
	if c.MinEvents <= 0 {
		c.MinEvents = 16
	}
	return c
}

// ShardHealthInfo is one shard's health snapshot.
type ShardHealthInfo struct {
	// Shard is the member index.
	Shard int `json:"shard"`
	// State is the current state-machine position: its name in JSON, its
	// number (0 healthy, 1 suspect, 2 failed, 3 rebuilding) as a gauge.
	State ShardState `json:"state" prom:"state,gauge"`
	// FaultRate is the fault fraction over the rolling window (0 when
	// the window covers no reads).
	FaultRate float64 `json:"fault_rate" prom:"fault_rate,gauge"`
	// WindowReads is how many reads the window currently covers.
	WindowReads int `json:"window_reads"`
	// LatentErrors counts at-rest corruption the scrubber found on this
	// shard (cumulative).
	LatentErrors int64 `json:"latent_errors" prom:"latent_errors_total,counter"`
	// Transitions counts state changes since construction.
	Transitions int64 `json:"transitions"`
}

// HealthReporter is the optional Backend face the serving layer consults
// to steer selection and recovery by shard state. *Array implements it; a
// lone Device does not (one shard, nothing to route around).
type HealthReporter interface {
	// ShardState returns shard i's current state.
	ShardState(i int) ShardState
	// ShardHealth returns shard i's full health snapshot.
	ShardHealth(i int) ShardHealthInfo
}

// shardHealth is one shard's window and state.
type shardHealth struct {
	mu     sync.Mutex
	faults []bool // ring of recent read outcomes (true = faulted)
	next   int    // ring cursor
	filled int    // reads covered, ≤ len(faults)
	bad    int    // faults among the covered reads

	state       atomic.Int32
	latent      atomic.Int64
	transitions atomic.Int64
}

// rate returns the window's fault fraction and coverage.
func (h *shardHealth) rate() (float64, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.filled == 0 {
		return 0, 0
	}
	return float64(h.bad) / float64(h.filled), h.filled
}

// resetWindow clears the rolling window (used when a shard re-enters
// service, so stale faults don't instantly re-fail it).
func (h *shardHealth) resetWindow() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.next, h.filled, h.bad = 0, 0, 0
	for i := range h.faults {
		h.faults[i] = false
	}
}

// HealthTracker holds the per-shard health of one Array.
type HealthTracker struct {
	cfg    HealthConfig
	shards []shardHealth

	// onFail, when set, is invoked (on its own goroutine) each time a
	// shard transitions into ShardFailed — the hook an auto-rebuilder
	// hangs off.
	mu     sync.Mutex
	onFail func(shard int)
}

// newHealthTracker returns a tracker for n shards.
func newHealthTracker(n int, cfg HealthConfig) *HealthTracker {
	cfg = cfg.withDefaults()
	t := &HealthTracker{cfg: cfg, shards: make([]shardHealth, n)}
	for i := range t.shards {
		t.shards[i].faults = make([]bool, cfg.Window)
	}
	return t
}

// OnFail registers a hook invoked (asynchronously) whenever a shard
// transitions into ShardFailed, whether by window saturation or by an
// explicit FailShard. At most one hook; nil clears it.
func (t *HealthTracker) OnFail(fn func(shard int)) {
	t.mu.Lock()
	t.onFail = fn
	t.mu.Unlock()
}

// fire invokes the failure hook for shard i, if any.
func (t *HealthTracker) fire(i int) {
	t.mu.Lock()
	fn := t.onFail
	t.mu.Unlock()
	if fn != nil {
		go fn(i)
	}
}

// setState transitions shard i, firing the failure hook on entry into
// ShardFailed. Returns whether the state changed.
func (t *HealthTracker) setState(i int, s ShardState) bool {
	h := &t.shards[i]
	old := ShardState(h.state.Swap(int32(s)))
	if old == s {
		return false
	}
	h.transitions.Add(1)
	if s == ShardFailed {
		t.fire(i)
	}
	return true
}

// observe records one read outcome on shard i and advances the automatic
// transitions (healthy ↔ suspect, → failed). Failed and rebuilding are
// sticky: outcomes still enter the window (so the post-rebuild view is
// fresh) but never transition the state.
func (t *HealthTracker) observe(i int, faulted bool) {
	h := &t.shards[i]
	h.mu.Lock()
	if h.faults[h.next] && h.filled == len(h.faults) {
		h.bad--
	}
	h.faults[h.next] = faulted
	if faulted {
		h.bad++
	}
	h.next = (h.next + 1) % len(h.faults)
	if h.filled < len(h.faults) {
		h.filled++
	}
	rate, n := float64(h.bad)/float64(h.filled), h.filled
	h.mu.Unlock()

	state := ShardState(h.state.Load())
	if state == ShardFailed || state == ShardRebuilding {
		return
	}
	if n < t.cfg.MinEvents {
		return
	}
	switch {
	case rate >= t.cfg.FailThreshold:
		t.setState(i, ShardFailed)
	case rate >= t.cfg.SuspectThreshold:
		if state == ShardHealthy {
			t.setState(i, ShardSuspect)
		}
	default:
		if state == ShardSuspect {
			t.setState(i, ShardHealthy)
		}
	}
}

// Info returns shard i's health snapshot.
func (t *HealthTracker) Info(i int) ShardHealthInfo {
	h := &t.shards[i]
	rate, n := h.rate()
	return ShardHealthInfo{
		Shard:        i,
		State:        ShardState(h.state.Load()),
		FaultRate:    rate,
		WindowReads:  n,
		LatentErrors: h.latent.Load(),
		Transitions:  h.transitions.Load(),
	}
}

// AlwaysFail is the total-loss fault model: every read completes with
// ErrReadFailed. Installing it on one shard of an Array is the canonical
// full-drive-failure chaos injection.
type AlwaysFail struct{}

// Judge implements FaultModel.
func (AlwaysFail) Judge(int64, PageID) Fault { return Fault{Err: ErrReadFailed} }
