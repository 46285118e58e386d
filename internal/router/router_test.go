package router

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/core"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/modulation"
	"quamax/internal/rng"
	"quamax/internal/sched"
)

// fakeShard counts dispatches and optionally simulates slow service.
type fakeShard struct {
	delay time.Duration

	dispatched atomic.Uint64

	mu   sync.Mutex
	keys map[core.ChannelKey]int // fingerprint → dispatch count
}

func newFakeShard(delay time.Duration) *fakeShard {
	return &fakeShard{delay: delay, keys: make(map[core.ChannelKey]int)}
}

func (f *fakeShard) Dispatch(ctx context.Context, p *backend.Problem, deadline time.Duration) (*backend.Result, error) {
	f.dispatched.Add(1)
	if p.Window != nil {
		f.mu.Lock()
		f.keys[p.Window.Key()]++
		f.mu.Unlock()
	}
	if f.delay > 0 {
		handOff(p)
		time.Sleep(f.delay)
	}
	return &backend.Result{Backend: "fake"}, nil
}

// handOff is what a test shard that blocks does first, as the scheduler does
// before it waits (backend.Problem.Handoff).
func handOff(p *backend.Problem) {
	if p.Handoff != nil {
		p.Handoff()
	}
}

func (f *fakeShard) Stats() metrics.PoolStats {
	n := f.dispatched.Load()
	return metrics.PoolStats{Submitted: n, Completed: n}
}

// tagWindow is the window of a 1×1 BPSK channel holding k: a distinct key
// per k, which is all the router reads of a window.
func tagWindow(k uint64) *core.Window {
	return core.NewWindow(modulation.BPSK, &linalg.Mat{Rows: 1, Cols: 1, Data: []complex128{complex(float64(k), 0)}})
}

// windowOn returns a tag window whose key the ring places on shard.
func windowOn(r *Router, shard int) *core.Window {
	for k := uint64(1); ; k++ {
		if w := tagWindow(k); r.ShardFor(w.Key()) == shard {
			return w
		}
	}
}

func newTestRouter(t *testing.T, shards []Shard, cfg Config) *Router {
	t.Helper()
	cfg.Shards = shards
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty shard list")
	}
}

// TestAffinityStable is the acceptance-row affinity check: the same channel
// fingerprint routes to the same shard across 10k dispatches, and the
// placement agrees with ShardFor.
func TestAffinityStable(t *testing.T) {
	shards := []Shard{newFakeShard(0), newFakeShard(0), newFakeShard(0), newFakeShard(0)}
	r := newTestRouter(t, shards, Config{})
	src := rng.New(7)

	wins := make([]*core.Window, 100)
	keys := make([]core.ChannelKey, len(wins))
	for i := range wins {
		wins[i] = tagWindow(src.Uint64())
		keys[i] = wins[i].Key()
	}
	for i := 0; i < 10000; i++ {
		key := keys[i%len(keys)]
		want := r.ShardFor(key)
		p := &backend.Problem{Window: wins[i%len(wins)]}
		if _, err := r.Dispatch(context.Background(), p, 0); err != nil {
			t.Fatalf("dispatch %d: %v", i, err)
		}
		if got := r.ShardFor(key); got != want {
			t.Fatalf("key %#x moved from shard %d to %d", key, want, got)
		}
	}
	// Every fingerprint's dispatches all landed on its one ring shard.
	for _, key := range keys {
		owner := r.ShardFor(key)
		for i, sh := range shards {
			f := sh.(*fakeShard)
			f.mu.Lock()
			n := f.keys[key]
			f.mu.Unlock()
			if i == owner && n != 100 {
				t.Fatalf("shard %d owns key %#x but saw %d/100 dispatches", i, key, n)
			}
			if i != owner && n != 0 {
				t.Fatalf("shard %d does not own key %#x but saw %d dispatches", i, key, n)
			}
		}
	}
}

// TestRingSpread checks the virtual-node ring spreads fingerprints across
// every shard without gross imbalance.
func TestRingSpread(t *testing.T) {
	shards := []Shard{newFakeShard(0), newFakeShard(0), newFakeShard(0), newFakeShard(0)}
	r := newTestRouter(t, shards, Config{})
	src := rng.New(3)
	counts := make([]int, len(shards))
	const n = 20000
	for i := 0; i < n; i++ {
		counts[r.ShardFor(core.ChannelKey(src.Uint64()|1))]++
	}
	for i, c := range counts {
		share := float64(c) / n
		if share < 0.10 || share > 0.45 {
			t.Fatalf("shard %d owns %.1f%% of the key space (counts %v)", i, 100*share, counts)
		}
	}
}

// TestPowerOfTwoChoicesBalance checks un-keyed traffic spreads over all
// shards.
func TestPowerOfTwoChoicesBalance(t *testing.T) {
	shards := []Shard{newFakeShard(0), newFakeShard(0), newFakeShard(0), newFakeShard(0)}
	r := newTestRouter(t, shards, Config{Seed: 11})
	const n = 4000
	for i := 0; i < n; i++ {
		if _, err := r.Dispatch(context.Background(), &backend.Problem{}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i, sh := range shards {
		got := sh.(*fakeShard).dispatched.Load()
		share := float64(got) / n
		if share < 0.10 || share > 0.45 {
			t.Fatalf("shard %d served %.1f%% of un-keyed traffic", i, 100*share)
		}
	}
}

// TestSheddingTypedError drives one shard's deadline-miss EWMA over the
// threshold and checks keyed traffic bound to it is refused with the tagged
// *ShedError while other shards keep serving.
func TestSheddingTypedError(t *testing.T) {
	slow := newFakeShard(2 * time.Millisecond)
	fast := newFakeShard(0)
	r := newTestRouter(t, []Shard{slow, fast}, Config{ShedThreshold: 0.5})
	// Find windows owned by each shard.
	slowWin, fastWin := windowOn(r, 0), windowOn(r, 1)
	// Every dispatch misses its 1µs deadline on the slow shard, pumping the
	// EWMA toward 1 until the threshold trips: the EWMA passes 0.5 after 14
	// misses, and the shard sheds once DefaultShedMinSamples have completed.
	var shedErr error
	for i := 0; i < 100; i++ {
		_, err := r.Dispatch(context.Background(), &backend.Problem{Window: slowWin}, time.Microsecond)
		if err != nil {
			shedErr = err
			break
		}
	}
	if shedErr == nil {
		t.Fatal("slow shard never shed")
	}
	if !errors.Is(shedErr, ErrShed) {
		t.Fatalf("shed error %v does not match ErrShed", shedErr)
	}
	var se *ShedError
	if !errors.As(shedErr, &se) {
		t.Fatalf("shed error %v is not a *ShedError", shedErr)
	}
	if se.Shard != 0 {
		t.Fatalf("shed error names shard %d, want 0", se.Shard)
	}
	if se.MissEWMA <= 0.5 {
		t.Fatalf("shed error carries ewma %.2f, want > threshold 0.5", se.MissEWMA)
	}
	if r.ShedCount(0) == 0 {
		t.Fatal("ShedCount(0) is zero after a shed")
	}
	// The healthy shard's keyed traffic is unaffected.
	if _, err := r.Dispatch(context.Background(), &backend.Problem{Window: fastWin}, time.Second); err != nil {
		t.Fatalf("healthy shard refused: %v", err)
	}
	// Un-keyed traffic steers around the shed shard.
	before := fast.dispatched.Load()
	for i := 0; i < 50; i++ {
		if _, err := r.Dispatch(context.Background(), &backend.Problem{}, time.Second); err != nil {
			t.Fatalf("un-keyed dispatch %d refused with one healthy shard: %v", i, err)
		}
	}
	if got := fast.dispatched.Load() - before; got != 50 {
		t.Fatalf("healthy shard served %d/50 un-keyed dispatches during shed", got)
	}
}

// A router with a shed threshold and no health plane exports what it sheds:
// the shed count and miss EWMA are the router's own series, beside each
// shard's pool counters under the same shard label.
func TestShedSeriesExportWithoutHealthPlane(t *testing.T) {
	slow := newFakeShard(time.Millisecond)
	r := newTestRouter(t, []Shard{slow, newFakeShard(0)}, Config{ShedThreshold: 0.5})
	win := windowOn(r, 0)
	shed := false
	for i := 0; i < 100 && !shed; i++ {
		_, err := r.Dispatch(context.Background(), &backend.Problem{Window: win}, time.Microsecond)
		shed = errors.Is(err, ErrShed)
	}
	if !shed {
		t.Fatal("slow shard never shed")
	}
	got := map[string]float64{}
	for _, s := range metrics.Collect(r.Samples()) {
		shard, _ := s.Label("shard")
		got[s.Name+"/"+shard] = s.Value
	}
	if got["quamax_shard_sheds_total/0"] != float64(r.ShedCount(0)) || r.ShedCount(0) == 0 {
		t.Fatalf("shard 0 exports %g sheds, router counted %d", got["quamax_shard_sheds_total/0"], r.ShedCount(0))
	}
	if got["quamax_shard_miss_ewma/0"] != r.MissEWMA(0) || r.MissEWMA(0) <= 0.5 {
		t.Fatalf("shard 0 exports miss EWMA %g, router holds %g", got["quamax_shard_miss_ewma/0"], r.MissEWMA(0))
	}
	if sheds, ok := got["quamax_shard_sheds_total/1"]; !ok || sheds != 0 {
		t.Fatalf("healthy shard exports sheds %g (present %v), want a zero series", sheds, ok)
	}
	if got["quamax_pool_submitted_total/0"] != float64(slow.dispatched.Load()) {
		t.Fatalf("shard 0 pool counters missing from the set: %v", got)
	}
}

// TestSheddingDisabledByDefault checks the zero threshold never sheds, even
// under persistent misses.
func TestSheddingDisabledByDefault(t *testing.T) {
	slow := newFakeShard(time.Millisecond)
	r := newTestRouter(t, []Shard{slow}, Config{})
	win := tagWindow(1)
	for i := 0; i < 50; i++ {
		if _, err := r.Dispatch(context.Background(), &backend.Problem{Window: win}, time.Microsecond); err != nil {
			t.Fatalf("dispatch %d refused with shedding disabled: %v", i, err)
		}
	}
}

// instantBackend is a minimal real backend for scheduler-backed shards.
type instantBackend struct{ name string }

func (b *instantBackend) Describe() *backend.Capabilities {
	return &backend.Capabilities{
		Name:    b.name,
		Latency: func(p *backend.Problem) float64 { return 1 },
	}
}
func (b *instantBackend) Solve(ctx context.Context, p *backend.Problem, src *rng.Source) (*backend.Result, error) {
	return &backend.Result{Bits: []byte{0}, Backend: b.name}, nil
}

// TestReconciliationAcrossShards runs real sched.Scheduler shards behind the
// router under concurrent load and checks the reconciliation invariant
// (Submitted == Completed + Failed) holds per shard and in the merged
// aggregate, with the aggregate equal to the dispatch count.
func TestReconciliationAcrossShards(t *testing.T) {
	const nShards = 3
	var schedulers []*sched.Scheduler
	var shards []Shard
	for i := 0; i < nShards; i++ {
		s, err := sched.New(sched.Config{
			Pool: []backend.Backend{&instantBackend{name: fmt.Sprintf("s%d/be", i)}},
			Seed: int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		schedulers = append(schedulers, s)
		shards = append(shards, s)
	}
	r := newTestRouter(t, shards, Config{Seed: 5})

	h := linalg.NewMat(2, 2)
	h.Set(0, 0, 1)
	h.Set(1, 1, 1)
	const total = 600
	var wg sync.WaitGroup
	src := rng.New(9)
	wins := make([]*core.Window, total)
	for i := range wins {
		if i%2 == 0 {
			wins[i] = tagWindow(src.Uint64()) // keyed half
		}
	}
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(w *core.Window) {
			defer wg.Done()
			p := &backend.Problem{Mod: modulation.BPSK, H: h, Y: []complex128{1, 1}, Window: w}
			if _, err := r.Dispatch(context.Background(), p, 0); err != nil {
				t.Errorf("dispatch: %v", err)
			}
		}(wins[i])
	}
	wg.Wait()
	for _, s := range schedulers {
		s.Close()
	}

	var sum uint64
	for i, st := range r.ShardStats() {
		if st.Submitted != st.Completed+st.Failed {
			t.Fatalf("shard %d does not reconcile: submitted=%d completed=%d failed=%d",
				i, st.Submitted, st.Completed, st.Failed)
		}
		sum += st.Submitted
	}
	if sum != total {
		t.Fatalf("per-shard submissions sum to %d, want %d", sum, total)
	}
	agg := r.Stats()
	if agg.Submitted != agg.Completed+agg.Failed {
		t.Fatalf("aggregate does not reconcile: submitted=%d completed=%d failed=%d",
			agg.Submitted, agg.Completed, agg.Failed)
	}
	if agg.Submitted != total {
		t.Fatalf("aggregate submitted=%d, want %d", agg.Submitted, total)
	}
}

// TestStatsMergeMatchesManualFold checks Stats() equals folding ShardStats()
// with PoolStats.Merge — the per-shard breakdown and the roll-up must never
// drift apart.
func TestStatsMergeMatchesManualFold(t *testing.T) {
	shards := []Shard{newFakeShard(0), newFakeShard(0), newFakeShard(0)}
	r := newTestRouter(t, shards, Config{Seed: 2})
	for i := 0; i < 90; i++ {
		if _, err := r.Dispatch(context.Background(), &backend.Problem{}, 0); err != nil {
			t.Fatal(err)
		}
	}
	per := r.ShardStats()
	manual := per[0]
	for _, st := range per[1:] {
		manual = manual.Merge(st)
	}
	agg := r.Stats()
	if agg.Submitted != manual.Submitted || agg.Completed != manual.Completed {
		t.Fatalf("Stats() %+v differs from folded ShardStats() %+v", agg, manual)
	}
	if agg.Submitted != 90 {
		t.Fatalf("aggregate submitted=%d, want 90", agg.Submitted)
	}
}
