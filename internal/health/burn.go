package health

import (
	"sync"

	"quamax/internal/metrics"
)

// The SLO budgets and their burn windows.
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
	// DefaultBurnThreshold is the burn-rate multiple (rate/budget) at which a
	// window burns. A shard alerts only when the fast AND slow windows both
	// burn — the multi-window rule that ignores short blips (fast spikes,
	// slow calm) and stale incidents (slow elevated, fast recovered).
	DefaultBurnThreshold = 2.0
	// DefaultBurnMinSamples suppresses alerting until a shard has seen this
	// many requests.
	DefaultBurnMinSamples = 32
)

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
	shards []*shardBurn
}

// NewBurnTracker builds a tracker over n shards (n ≥ 1).
func NewBurnTracker(n int) *BurnTracker {
	if n < 1 {
		n = 1
	}
	t := &BurnTracker{shards: make([]*shardBurn, n)}
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
		s.fastMiss += DefaultFastAlpha * (miss - s.fastMiss)
		s.slowMiss += DefaultSlowAlpha * (miss - s.slowMiss)
		s.fastBER += DefaultFastAlpha * (ber - s.fastBER)
		s.slowBER += DefaultSlowAlpha * (ber - s.slowBER)
	}
	s.mu.Unlock()
}

// alertingLocked evaluates the multi-window rule. Caller holds s.mu.
func (s *shardBurn) alertingLocked() bool {
	if s.samples < DefaultBurnMinSamples {
		return false
	}
	const miss, ber = DefaultBurnThreshold * DefaultMissBudget, DefaultBurnThreshold * DefaultBERBudget
	return s.fastMiss >= miss && s.slowMiss >= miss || s.fastBER >= ber && s.slowBER >= ber
}

// Alerting reports the shard's multi-window verdict: some budget (miss or
// BER) is burning faster than DefaultBurnThreshold× on both windows.
func (t *BurnTracker) Alerting(shard int) bool {
	if t == nil || shard < 0 || shard >= len(t.shards) {
		return false
	}
	s := t.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alertingLocked()
}

// Shards returns the tracked shard count (0 on a nil tracker).
func (t *BurnTracker) Shards() int {
	if t == nil {
		return 0
	}
	return len(t.shards)
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
			Alerting:     s.alertingLocked(),
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
