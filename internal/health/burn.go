package health

import (
	"sync"

	"quamax/internal/metrics"
)

// SLO defaults for SLOConfig fields left zero.
const (
	// DefaultMissBudget is the deadline-miss SLO budget (fraction of
	// deadline-bearing requests allowed to miss).
	DefaultMissBudget = 0.01
	// DefaultBERBudget is the BER-risk budget: the allowed fraction of
	// requests with a BER-risk event (soft-decode LLR saturation, or a QoS
	// target the planner had to deny to classical).
	DefaultBERBudget = 0.05
	// DefaultFastAlpha and DefaultSlowAlpha are the EWMA weights of the fast
	// (~20-request) and slow (~200-request) burn windows.
	DefaultFastAlpha = 0.05
	DefaultSlowAlpha = 0.005
	// DefaultBurnThreshold is the burn-rate multiple (rate/budget) both
	// windows must exceed before the shard alerts.
	DefaultBurnThreshold = 2.0
	// DefaultBurnMinSamples suppresses alerting until a shard has seen this
	// many requests.
	DefaultBurnMinSamples = 32
)

// SLOConfig parameterizes a BurnTracker. Zero fields take the defaults.
type SLOConfig struct {
	// MissBudget and BERBudget are the per-shard SLO budgets the burn rates
	// are normalized against.
	MissBudget, BERBudget float64
	// FastAlpha and SlowAlpha are the two windows' EWMA weights
	// (fast > slow).
	FastAlpha, SlowAlpha float64
	// BurnThreshold is the rate/budget multiple at which a window burns;
	// a shard alerts only when the fast AND slow windows both burn — the
	// multi-window rule that ignores short blips (fast spikes, slow calm)
	// and stale incidents (slow elevated, fast recovered).
	BurnThreshold float64
	// MinSamples suppresses alerting on a cold shard.
	MinSamples int
}

// withDefaults resolves zero fields.
func (c SLOConfig) withDefaults() SLOConfig {
	if c.MissBudget <= 0 {
		c.MissBudget = DefaultMissBudget
	}
	if c.BERBudget <= 0 {
		c.BERBudget = DefaultBERBudget
	}
	if c.FastAlpha <= 0 {
		c.FastAlpha = DefaultFastAlpha
	}
	if c.SlowAlpha <= 0 {
		c.SlowAlpha = DefaultSlowAlpha
	}
	if c.BurnThreshold <= 0 {
		c.BurnThreshold = DefaultBurnThreshold
	}
	if c.MinSamples <= 0 {
		c.MinSamples = DefaultBurnMinSamples
	}
	return c
}

// shardBurn is one shard's pair of burn windows.
type shardBurn struct {
	mu                 sync.Mutex
	samples            uint64
	fastMiss, slowMiss float64
	fastBER, slowBER   float64
}

// BurnTracker tracks per-shard SLO burn rates: every request lands a
// deadline-miss bit and a BER-risk bit in a fast and a slow EWMA window.
// The scheduler feeds it at the same point it finishes the request's trace;
// the router consults Alerting in its shed decision. All methods are safe
// for concurrent use and safe on a nil receiver.
type BurnTracker struct {
	cfg    SLOConfig
	shards []*shardBurn
}

// NewBurnTracker builds a tracker over n shards (n ≥ 1).
func NewBurnTracker(n int, cfg SLOConfig) *BurnTracker {
	if n < 1 {
		n = 1
	}
	t := &BurnTracker{cfg: cfg.withDefaults(), shards: make([]*shardBurn, n)}
	for i := range t.shards {
		t.shards[i] = &shardBurn{}
	}
	return t
}

// Observe records one completed request on a shard: whether it missed its
// deadline and whether it carried a BER-risk event.
func (t *BurnTracker) Observe(shard int, deadlineMiss, berMiss bool) {
	if t == nil || shard < 0 || shard >= len(t.shards) {
		return
	}
	miss, ber := 0.0, 0.0
	if deadlineMiss {
		miss = 1
	}
	if berMiss {
		ber = 1
	}
	s := t.shards[shard]
	s.mu.Lock()
	s.samples++
	if s.samples == 1 {
		s.fastMiss, s.slowMiss = miss, miss
		s.fastBER, s.slowBER = ber, ber
	} else {
		s.fastMiss += t.cfg.FastAlpha * (miss - s.fastMiss)
		s.slowMiss += t.cfg.SlowAlpha * (miss - s.slowMiss)
		s.fastBER += t.cfg.FastAlpha * (ber - s.fastBER)
		s.slowBER += t.cfg.SlowAlpha * (ber - s.slowBER)
	}
	s.mu.Unlock()
}

// alertingLocked evaluates the multi-window rule. Caller holds s.mu.
func (t *BurnTracker) alertingLocked(s *shardBurn) bool {
	if s.samples < uint64(t.cfg.MinSamples) {
		return false
	}
	th := t.cfg.BurnThreshold
	missBurn := s.fastMiss >= th*t.cfg.MissBudget && s.slowMiss >= th*t.cfg.MissBudget
	berBurn := s.fastBER >= th*t.cfg.BERBudget && s.slowBER >= th*t.cfg.BERBudget
	return missBurn || berBurn
}

// Alerting reports the shard's multi-window verdict: some budget (miss or
// BER) is burning faster than BurnThreshold× on both windows.
func (t *BurnTracker) Alerting(shard int) bool {
	if t == nil || shard < 0 || shard >= len(t.shards) {
		return false
	}
	s := t.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	return t.alertingLocked(s)
}

// Shards returns the tracked shard count (0 on a nil tracker).
func (t *BurnTracker) Shards() int {
	if t == nil {
		return 0
	}
	return len(t.shards)
}

// Budgets returns the configured miss and BER budgets (the Prometheus
// exporter normalizes burn gauges against them).
func (t *BurnTracker) Budgets() (miss, ber float64) {
	if t == nil {
		return DefaultMissBudget, DefaultBERBudget
	}
	return t.cfg.MissBudget, t.cfg.BERBudget
}

// Snapshot exports every shard's burn view. Safe on a nil tracker (returns
// nil).
func (t *BurnTracker) Snapshot() []metrics.ShardBurn {
	if t == nil {
		return nil
	}
	out := make([]metrics.ShardBurn, len(t.shards))
	for i, s := range t.shards {
		s.mu.Lock()
		out[i] = metrics.ShardBurn{
			FastMissRate: s.fastMiss,
			SlowMissRate: s.slowMiss,
			FastBERRate:  s.fastBER,
			SlowBERRate:  s.slowBER,
			Observed:     s.samples,
			Alerting:     t.alertingLocked(s),
		}
		s.mu.Unlock()
	}
	return out
}

// Samples exports every shard's burn view (metrics.ShardBurn.Samples). Safe
// on a nil tracker (returns nil).
func (t *BurnTracker) Samples() []metrics.Sample {
	var out []metrics.Sample
	for i, b := range t.Snapshot() {
		out = append(out, b.Samples(i)...)
	}
	return out
}
