package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"quamax/internal/backend"
	"quamax/internal/fronthaul"
	"quamax/internal/metrics"
	"quamax/internal/rng"
	"quamax/internal/router"
)

// Spans are recorded from outside the program, by wrappers this package
// places around the three public interface boundaries of the serving path:
// fronthaul.Dispatcher (around the router), router.Shard (around each
// scheduler) and backend.Backend (around each pool member and the fallback).
// One request's spans are joined on the identity of its problem's Y backing
// array, which survives the scheduler's planned copy of the Problem.

// layer names a span's boundary.
type layer uint8

const (
	layerDispatcher layer = iota
	layerShard
	layerBackend
	layerFallback
	numLayers
)

var layerNames = [numLayers]string{"dispatcher", "shard", "backend", "fallback"}

// span is one recorded interval. Times are nanoseconds since the tracer
// started; parent is the id of the enclosing span (0 = none: the client's
// request on the far side of the socket).
type span struct {
	id, parent uint64
	layer      layer
	start, end int64
	// batch is the number of problems that shared a backend run.
	batch int
}

// maxSpans caps the spans kept for the span file; the per-layer sums behind
// the self-time metrics cover every span regardless.
const maxSpans = 200_000

// joinShards spreads the join table and span buffers over this many locks.
const joinShards = 64

// live is the open spans of one in-service request.
type live struct {
	dispatcher, shard uint64
}

type tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	shard [joinShards]struct {
		mu    sync.Mutex
		live  map[uintptr]live
		spans []span
	}
	kept atomic.Int64

	// Per-layer totals over every span: count and summed duration. Backend
	// layers also total runs (one per Solve or SolveBatch call).
	count, nanos  [numLayers]atomic.Int64
	runs, runNano [numLayers]atomic.Int64
}

func newTracer() *tracer {
	tr := &tracer{t0: time.Now()}
	for i := range tr.shard {
		tr.shard[i].live = make(map[uintptr]live)
	}
	return tr
}

// key identifies a request by its Y backing array.
func key(p *backend.Problem) uintptr {
	return uintptr(unsafe.Pointer(unsafe.SliceData(p.Y)))
}

func (tr *tracer) slot(k uintptr) int { return int((k >> 4) % joinShards) }

// open starts a span for the request keyed k and returns its id and parent.
func (tr *tracer) open(k uintptr, l layer) (id, parent uint64) {
	id = tr.nextID.Add(1)
	sh := &tr.shard[tr.slot(k)]
	sh.mu.Lock()
	lv := sh.live[k]
	switch l {
	case layerDispatcher:
		lv.dispatcher = id
		sh.live[k] = lv
	case layerShard:
		parent = lv.dispatcher
		lv.shard = id
		sh.live[k] = lv
	default:
		parent = lv.shard
	}
	sh.mu.Unlock()
	return id, parent
}

// finish records the span and, for the outermost layer, forgets the request.
func (tr *tracer) finish(k uintptr, s span) {
	tr.count[s.layer].Add(1)
	tr.nanos[s.layer].Add(s.end - s.start)
	sh := &tr.shard[tr.slot(k)]
	sh.mu.Lock()
	if s.layer == layerDispatcher {
		delete(sh.live, k)
	}
	if tr.kept.Add(1) <= maxSpans {
		sh.spans = append(sh.spans, s)
	}
	sh.mu.Unlock()
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

type tracedDispatcher struct {
	tr    *tracer
	inner fronthaul.Dispatcher
}

func (tr *tracer) wrapDispatcher(d fronthaul.Dispatcher) fronthaul.Dispatcher {
	return &tracedDispatcher{tr: tr, inner: d}
}

func (d *tracedDispatcher) Dispatch(ctx context.Context, p *backend.Problem, deadline time.Duration) (*backend.Result, error) {
	k := key(p)
	id, parent := d.tr.open(k, layerDispatcher)
	start := d.tr.now()
	res, err := d.inner.Dispatch(ctx, p, deadline)
	d.tr.finish(k, span{id: id, parent: parent, layer: layerDispatcher, start: start, end: d.tr.now()})
	return res, err
}

type tracedShard struct {
	tr    *tracer
	inner router.Shard
}

func (tr *tracer) wrapShard(s router.Shard) router.Shard { return &tracedShard{tr: tr, inner: s} }

func (s *tracedShard) Stats() metrics.PoolStats { return s.inner.Stats() }

func (s *tracedShard) Dispatch(ctx context.Context, p *backend.Problem, deadline time.Duration) (*backend.Result, error) {
	k := key(p)
	id, parent := s.tr.open(k, layerShard)
	start := s.tr.now()
	res, err := s.inner.Dispatch(ctx, p, deadline)
	s.tr.finish(k, span{id: id, parent: parent, layer: layerShard, start: start, end: s.tr.now()})
	return res, err
}

// tracedBackend forwards Describe unchanged, so admission sees the wrapped
// backend's own latency model.
type tracedBackend struct {
	tr    *tracer
	inner backend.Backend
	layer layer
}

// tracedBatchBackend additionally forwards the batch interface and the
// channel-cache counters the scheduler's stats look for.
type tracedBatchBackend struct {
	tracedBackend
	batch backend.BatchBackend
}

func (tr *tracer) wrapBackend(b backend.Backend, fallback bool) backend.Backend {
	tb := tracedBackend{tr: tr, inner: b, layer: layerBackend}
	if fallback {
		tb.layer = layerFallback
	}
	if bb, ok := b.(backend.BatchBackend); ok {
		return &tracedBatchBackend{tracedBackend: tb, batch: bb}
	}
	return &tb
}

func (b *tracedBackend) Describe() *backend.Capabilities { return b.inner.Describe() }

func (b *tracedBackend) Solve(ctx context.Context, p *backend.Problem, src *rng.Source) (*backend.Result, error) {
	start := b.tr.now()
	res, err := b.inner.Solve(ctx, p, src)
	end := b.tr.now()
	b.run(start, end)
	b.problem(p, start, end, 1)
	return res, err
}

// run totals one Solve or SolveBatch call for busy time.
func (b *tracedBackend) run(start, end int64) {
	b.tr.runs[b.layer].Add(1)
	b.tr.runNano[b.layer].Add(end - start)
}

// problem files the span of one problem a run carried. It covers the whole
// run, because that is what the request waited for.
func (b *tracedBackend) problem(p *backend.Problem, start, end int64, batch int) {
	k := key(p)
	id, parent := b.tr.open(k, b.layer)
	b.tr.finish(k, span{id: id, parent: parent, layer: b.layer, start: start, end: end, batch: batch})
}

func (b *tracedBatchBackend) BatchSlots(p *backend.Problem) int { return b.batch.BatchSlots(p) }

func (b *tracedBatchBackend) SolveBatch(ctx context.Context, ps []*backend.Problem, src *rng.Source) ([]*backend.Result, error) {
	start := b.tr.now()
	res, err := b.batch.SolveBatch(ctx, ps, src)
	end := b.tr.now()
	b.run(start, end)
	for _, p := range ps {
		b.problem(p, start, end, len(ps))
	}
	return res, err
}

func (b *tracedBatchBackend) ChannelCacheStats() metrics.ChannelCacheStats {
	if cs, ok := b.inner.(interface {
		ChannelCacheStats() metrics.ChannelCacheStats
	}); ok {
		return cs.ChannelCacheStats()
	}
	return metrics.ChannelCacheStats{}
}

// spanJSON is the span file's record.
type spanJSON struct {
	ID      uint64  `json:"id"`
	Parent  uint64  `json:"parent"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Batch   int     `json:"batch,omitempty"`
}

// writeFile writes the kept spans to dir/<name>.trace.json.
func (tr *tracer) writeFile(dir, name string) (string, error) {
	var out []spanJSON
	for i := range tr.shard {
		sh := &tr.shard[i]
		sh.mu.Lock()
		for _, s := range sh.spans {
			out = append(out, spanJSON{
				ID: s.id, Parent: s.parent, Name: layerNames[s.layer],
				StartUs: float64(s.start) / 1e3, EndUs: float64(s.end) / 1e3, Batch: s.batch,
			})
		}
		sh.mu.Unlock()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
