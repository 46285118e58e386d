// Package router implements the front tier of the C-RAN data center: the
// layer above the QPU pool scheduler that shards decode traffic across N
// independent sched pools (paper §2's centralization argument only pays off
// when the serving tier scales past one pool — Kasi et al.,
// arXiv:2109.01465, make the same point from the economics side).
//
// Three routing mechanisms:
//
//   - Channel-affinity routing. Requests carrying a channel fingerprint
//     (the key of backend.Problem.Window — every decode against a registered
//     coherence window) are placed by consistent hashing on the fingerprint:
//     a hash ring with DefaultReplicas virtual nodes per shard. Every symbol
//     of a coherence window therefore lands on the shard that compiled its
//     channel, so compiled-channel cache hit rates are preserved at N shards
//     with no cross-shard duplication, and adding or removing a shard only
//     remaps the ~1/N of windows whose ring arcs move.
//
//   - Power-of-two-choices fallback. Un-keyed requests (self-contained
//     decodes and precodes with no coherence window) have no affinity to
//     preserve; they sample two distinct shards and join the one with fewer
//     outstanding dispatches, which bounds load imbalance exponentially
//     better than uniform random placement.
//
//   - Tagged backpressure shedding. The router tracks a per-shard EWMA of
//     deadline misses over completed dispatches. When a shard's EWMA climbs
//     past ShedThreshold, keyed traffic bound to it is refused with a typed
//     *ShedError (errors.Is(err, ErrShed)) carrying the shard index and the
//     observed miss rate, so access points can distinguish "the data center
//     is overloaded, back off" from a decode failure. Un-keyed traffic
//     simply avoids shed shards while any remain healthy. With Config.Burn
//     set, a shard also sheds while its SLO burn tracker (internal/health)
//     is multi-window alerting — budget burn fires earlier than the raw
//     miss EWMA when degradation is sharp.
//
// The router implements fronthaul.Dispatcher, so it drops in wherever a
// single scheduler served before; Stats() reports the PoolStats.Merge
// aggregate and ShardStats() the per-shard breakdown to in-process readers,
// and Samples() exports the tier to the stats frame and /metrics.
package router

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"quamax/internal/backend"
	"quamax/internal/core"
	"quamax/internal/health"
	"quamax/internal/metrics"
	"quamax/internal/rng"
)

// Shard is one serving pool behind the router. *sched.Scheduler satisfies
// it; tests may substitute fakes.
type Shard interface {
	Dispatch(ctx context.Context, p *backend.Problem, deadline time.Duration) (*backend.Result, error)
	Stats() metrics.PoolStats
}

// DefaultReplicas is the number of virtual ring nodes per shard. 64 keeps
// the ring's load spread within a few percent of uniform for small N while
// the whole ring still fits in cache.
const DefaultReplicas = 64

// DefaultShedAlpha is the EWMA weight of each new deadline-miss observation.
const DefaultShedAlpha = 0.05

// DefaultShedMinSamples is the number of deadline-carrying completions a
// shard must report before its EWMA is trusted enough to shed on.
const DefaultShedMinSamples = 32

// ErrShed tags backpressure refusals: errors.Is(err, ErrShed) is true for
// every *ShedError the router returns.
var ErrShed = errors.New("router: shard shedding load")

// ShedError is the tagged backpressure signal: the shard a request was bound
// to is missing deadlines above the configured threshold, so the router
// refused the dispatch instead of queueing more work behind a blown budget.
type ShedError struct {
	// Shard is the index of the overloaded shard.
	Shard int
	// MissEWMA is the shard's deadline-miss EWMA at refusal time.
	MissEWMA float64
}

// Error renders the shard index and observed miss EWMA.
func (e *ShedError) Error() string {
	return fmt.Sprintf("router: shard %d shedding load (deadline-miss ewma %.2f)", e.Shard, e.MissEWMA)
}

// Is makes errors.Is(err, ErrShed) match every ShedError.
func (e *ShedError) Is(target error) bool { return target == ErrShed }

// Config assembles a Router.
type Config struct {
	// Shards lists the serving pools, index order fixed for the router's
	// lifetime. The router does not own their lifecycles: the caller closes
	// the schedulers after the router stops receiving traffic.
	Shards []Shard
	// ShedThreshold is the deadline-miss EWMA above which a shard sheds
	// (0 disables shedding entirely; 1 can never trigger). The EWMA weighs
	// each new observation by DefaultShedAlpha and is trusted once a shard
	// has completed DefaultShedMinSamples deadline-carrying dispatches.
	ShedThreshold float64
	// Burn, when set, folds per-shard SLO burn rates into the shed decision:
	// a shard whose burn tracker is multi-window alerting (fast AND slow
	// windows burning error budget past threshold) sheds exactly like one
	// over the deadline-miss EWMA, independent of ShedThreshold. The tracker
	// is fed by the shard schedulers (sched.Config.Burn); the router only
	// reads it.
	Burn *health.BurnTracker
	// Seed drives the power-of-two-choices sampling.
	Seed int64
}

// ringPoint is one virtual node: a hash position owned by a shard.
type ringPoint struct {
	pos   uint64
	shard int
}

// shardState is the router's per-shard load bookkeeping.
type shardState struct {
	// outstanding counts dispatches in flight on this shard (the
	// power-of-two-choices signal).
	outstanding atomic.Int64

	mu       sync.Mutex
	missEWMA float64
	samples  uint64
	sheds    uint64
}

// Router shards dispatches across N pools. It is safe for concurrent
// Dispatch calls and implements fronthaul.Dispatcher.
type Router struct {
	shards []Shard
	state  []*shardState
	ring   []ringPoint

	threshold float64
	burn      *health.BurnTracker

	srcMu sync.Mutex
	src   *rng.Source
}

// New builds the hash ring and returns the router.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("router: no shards")
	}
	r := &Router{
		shards:    cfg.Shards,
		threshold: cfg.ShedThreshold,
		burn:      cfg.Burn,
		src:       rng.New(cfg.Seed),
	}
	for range cfg.Shards {
		r.state = append(r.state, &shardState{})
	}
	r.ring = make([]ringPoint, 0, len(cfg.Shards)*DefaultReplicas)
	var buf [16]byte
	for s := range cfg.Shards {
		for v := 0; v < DefaultReplicas; v++ {
			binary.LittleEndian.PutUint64(buf[0:8], uint64(s))
			binary.LittleEndian.PutUint64(buf[8:16], uint64(v))
			h := fnv.New64a()
			h.Write(buf[:])
			r.ring = append(r.ring, ringPoint{pos: h.Sum64(), shard: s})
		}
	}
	sort.Slice(r.ring, func(i, j int) bool {
		if r.ring[i].pos != r.ring[j].pos {
			return r.ring[i].pos < r.ring[j].pos
		}
		// Equal positions (vanishingly rare) tie-break by shard index so the
		// ring order — and therefore placement — is deterministic.
		return r.ring[i].shard < r.ring[j].shard
	})
	return r, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// mix is the splitmix64 finalizer: ChannelKey is itself an FNV hash, but
// finalizing again decorrelates ring placement from whatever structure the
// fingerprint function has.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardFor returns the ring placement of one channel fingerprint: the shard
// owning the first virtual node at or clockwise of the key's position.
func (r *Router) ShardFor(key core.ChannelKey) int {
	pos := mix(uint64(key))
	i := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].pos >= pos })
	if i == len(r.ring) {
		i = 0 // wrap: the ring is circular
	}
	return r.ring[i].shard
}

// pickTwo samples two distinct shard indexes (equal when N == 1).
func (r *Router) pickTwo() (int, int) {
	n := len(r.shards)
	if n == 1 {
		return 0, 0
	}
	r.srcMu.Lock()
	a := int(r.src.Uint64() % uint64(n))
	b := int(r.src.Uint64() % uint64(n-1))
	r.srcMu.Unlock()
	if b >= a {
		b++
	}
	return a, b
}

// shedding reports whether a shard should refuse new work: its deadline-miss
// EWMA is over the threshold (false while shedding is disabled or the shard
// has not completed enough deadline-carrying work to trust the estimate), or
// its SLO burn tracker is multi-window alerting — the shard is burning error
// budget fast enough that both the fast and slow windows agree, which fires
// well before the raw miss EWMA crosses a fixed line.
func (r *Router) shedding(shard int) (float64, bool) {
	var ewma float64
	if r.threshold > 0 {
		st := r.state[shard]
		st.mu.Lock()
		ewma = st.missEWMA
		over := st.samples >= DefaultShedMinSamples && ewma > r.threshold
		st.mu.Unlock()
		if over {
			return ewma, true
		}
	}
	if r.burn.Alerting(shard) {
		return ewma, true
	}
	return ewma, false
}

// observe folds one completed dispatch's deadline outcome into the shard's
// EWMA. Dispatch calls it only with shedding enabled and a deadline set: a
// request without one carries no miss signal.
func (r *Router) observe(shard int, missed bool) {
	sample := 0.0
	if missed {
		sample = 1.0
	}
	st := r.state[shard]
	st.mu.Lock()
	st.missEWMA += DefaultShedAlpha * (sample - st.missEWMA)
	st.samples++
	st.mu.Unlock()
}

// route picks the shard for one problem: ring placement for keyed requests,
// power-of-two-choices over outstanding counts for un-keyed ones. The
// returned error is a *ShedError when backpressure refuses the dispatch.
func (r *Router) route(p *backend.Problem) (int, error) {
	if p.Window != nil {
		// Affinity is strict: a shed shard's keyed traffic is refused, not
		// diverted — moving it would recompile the window elsewhere and make
		// the overload worse.
		shard := r.ShardFor(p.Window.Key())
		if ewma, shed := r.shedding(shard); shed {
			return 0, r.shed(shard, ewma)
		}
		return shard, nil
	}
	a, b := r.pickTwo()
	_, shedA := r.shedding(a)
	_, shedB := r.shedding(b)
	switch {
	case shedA && shedB:
		// Both samples overloaded: refuse with the less-loaded one's tag.
		shard := a
		if r.state[b].outstanding.Load() < r.state[a].outstanding.Load() {
			shard = b
		}
		ewma, _ := r.shedding(shard)
		return 0, r.shed(shard, ewma)
	case shedA:
		return b, nil
	case shedB:
		return a, nil
	}
	if r.state[b].outstanding.Load() < r.state[a].outstanding.Load() {
		return b, nil
	}
	return a, nil
}

// shed counts one refusal by shard and returns its tagged error.
func (r *Router) shed(shard int, ewma float64) error {
	st := r.state[shard]
	st.mu.Lock()
	st.sheds++
	st.mu.Unlock()
	return &ShedError{Shard: shard, MissEWMA: ewma}
}

// Dispatch routes one problem to its shard and runs it there, folding the
// deadline outcome back into the shard's shed EWMA. It implements
// fronthaul.Dispatcher.
func (r *Router) Dispatch(ctx context.Context, p *backend.Problem, deadline time.Duration) (*backend.Result, error) {
	shard, err := r.route(p)
	if err != nil {
		return nil, err
	}
	st := r.state[shard]
	st.outstanding.Add(1)
	var start time.Time
	if deadline > 0 && r.threshold > 0 {
		start = time.Now()
	}
	res, err := r.shards[shard].Dispatch(ctx, p, deadline)
	st.outstanding.Add(-1)
	if !start.IsZero() {
		r.observe(shard, time.Since(start) > deadline)
	}
	return res, err
}

// Stats reports the PoolStats.Merge aggregate over all shards — the single
// roll-up view a multi-pool deployment exports upward.
func (r *Router) Stats() metrics.PoolStats {
	out := r.shards[0].Stats()
	for _, sh := range r.shards[1:] {
		out = out.Merge(sh.Stats())
	}
	return out
}

// ShardStats reports the per-shard breakdown, index order.
func (r *Router) ShardStats() []metrics.PoolStats {
	out := make([]metrics.PoolStats, len(r.shards))
	for i, sh := range r.shards {
		out[i] = sh.Stats()
	}
	return out
}

// Samples exports the whole front tier as series labelled shard=<index>:
// each shard's PoolStats (one Stats call per shard, so the totals a reader
// sums are the breakdown it sees) plus the router's own shed count and
// deadline-miss EWMA, whether or not a health plane is attached.
func (r *Router) Samples() []metrics.Sample {
	var out []metrics.Sample
	for i, sh := range r.shards {
		shard := metrics.Label{Key: "shard", Value: strconv.Itoa(i)}
		out = append(out, sh.Stats().Samples(shard)...)
		out = append(out,
			metrics.Counter("quamax_shard_sheds_total", "Dispatches refused under backpressure per shard.", float64(r.ShedCount(i)), shard),
			metrics.Gauge("quamax_shard_miss_ewma", "Deadline-miss EWMA behind the shed decision per shard.", r.MissEWMA(i), shard))
	}
	return out
}

// ShedCount reports how many dispatches shard i has refused under
// backpressure.
func (r *Router) ShedCount(i int) uint64 {
	st := r.state[i]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sheds
}

// MissEWMA reports shard i's current deadline-miss EWMA.
func (r *Router) MissEWMA(i int) float64 {
	st := r.state[i]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.missEWMA
}

// String describes the router configuration.
func (r *Router) String() string {
	return fmt.Sprintf("router: shards=%d ring=%d shed-threshold=%g", len(r.shards), len(r.ring), r.threshold)
}
