package sched

import (
	"container/list"
	"sync"

	"quamax/internal/backend"
	"quamax/internal/core"
	"quamax/internal/qos"
)

// snrCache is the scheduler's per-channel planning state: the y-independent
// half of the SNR estimate (qos.SNREstimator, a pseudo-inverse) of the
// coherence windows it has most recently planned for, so the symbols of a
// window share one O(Nt³) inversion and each pays only O(Nt·Nr). It is an LRU
// keyed by backend.Problem.ChannelKey — equal keys mean identical channels by
// that field's contract — and bounded at snrCacheWindows.
type snrCache struct {
	mu  sync.Mutex
	m   map[core.ChannelKey]*list.Element
	lru list.List // of *snrEntry, most recent first
}

// snrCacheWindows bounds the cache at four times the windows a compiled-
// channel cache holds (core.DefaultChannelCache). An estimator is one Nt×Nr
// matrix (37 KB at 48×48) and a miss costs microseconds, not the milliseconds
// of a channel compile, so it pays to remember more of them: 256 is the
// number of live channel handles one fronthaul connection may hold
// (fronthaul.MaxChannelsPerConn, which this package cannot import), so one
// AP's registered windows never evict each other's planning state.
const snrCacheWindows = 4 * core.DefaultChannelCache

// snrEntry builds its estimator on first use, outside the cache lock, so the
// symbols of a new window arriving together invert its channel once.
type snrEntry struct {
	key   core.ChannelKey
	build sync.Once
	est   *qos.SNREstimator
}

// estimator returns the SNR estimator for p's channel. An un-keyed problem
// (a self-contained request whose channel is seen once) gets a fresh one that
// is never cached.
func (c *snrCache) estimator(p *backend.Problem) *qos.SNREstimator {
	if p.ChannelKey == 0 {
		return qos.NewSNREstimator(p.Mod, p.H)
	}
	c.mu.Lock()
	el, ok := c.m[p.ChannelKey]
	if ok {
		c.lru.MoveToFront(el)
	} else {
		if c.m == nil {
			c.m = make(map[core.ChannelKey]*list.Element)
		}
		el = c.lru.PushFront(&snrEntry{key: p.ChannelKey})
		c.m[p.ChannelKey] = el
		if c.lru.Len() > snrCacheWindows {
			delete(c.m, c.lru.Remove(c.lru.Back()).(*snrEntry).key)
		}
	}
	c.mu.Unlock()
	e := el.Value.(*snrEntry)
	e.build.Do(func() { e.est = qos.NewSNREstimator(p.Mod, p.H) })
	return e.est
}
