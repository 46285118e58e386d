package core

import (
	"container/list"
	"errors"
	"slices"
	"sync"

	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/modulation"
)

// WindowStore is what a server remembers about its channels: one value per
// coherence window — a compiled channel, a VP program, an SNR estimator —
// least recently used first out. Every store looks up by the ChannelKey the
// request carries (minted once, where H entered the process; no lookup hashes
// H) and verifies a hit: the entry must have been built for this modulation
// and this matrix — the same *linalg.Mat, as every symbol of a registered
// window presents, or else equal shape and contents. A forged, reused or
// colliding key is therefore a miss that replaces the entry, never another
// channel's value. K is the ChannelKey, or a struct of it and whatever else
// selects the value. Safe for concurrent use.
//
// A store copies any H it was only lent: a keyed H was registered, and stays
// immutable; one without a key enters the process at the call, from storage
// its caller reuses (a fronthaul slot's inline H).
type WindowStore[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	m        map[K]*list.Element
	lru      list.List // of *windowEntry[K, V], most recent first
	stats    metrics.ChannelCacheStats
}

// windowEntry is one remembered window. mod and h never change after insert;
// val and err are written once, before ready is done.
type windowEntry[K comparable, V any] struct {
	key   K
	mod   modulation.Modulation
	h     *linalg.Mat
	own   linalg.Mat     // h's storage when the caller only lent it
	built bool           // under the store lock: val is in
	ready sync.WaitGroup // done when the build has ended
	val   V
	err   error
}

var errBuildAbandoned = errors.New("core: the build of this window's entry panicked")

// NewWindowStore returns a store that remembers up to capacity windows.
func NewWindowStore[K comparable, V any](capacity int) *WindowStore[K, V] {
	return &WindowStore[K, V]{capacity: capacity, m: make(map[K]*list.Element)}
}

// Get returns the value remembered under key for channel (mod, h) and whether
// it was already there. A hit costs one lock, one map lookup, one list move
// and no allocation. On a miss build runs outside the lock, once however many
// callers arrive for the window together (they wait for it, and count as
// misses), and the oldest window past capacity is dropped; it gets the H the
// entry keeps, a copy when the caller only lent h. A build that fails is not
// remembered: its callers get the error and the next one builds again.
func (s *WindowStore[K, V]) Get(key K, mod modulation.Modulation, h *linalg.Mat, lent bool, build func(h *linalg.Mat) (V, error)) (V, bool, error) {
	s.mu.Lock()
	if el, ok := s.m[key]; ok {
		e := el.Value.(*windowEntry[K, V])
		if e.mod == mod && (e.h == h || (e.h.Rows == h.Rows && e.h.Cols == h.Cols && slices.Equal(e.h.Data, h.Data))) {
			if e.built {
				s.lru.MoveToFront(el)
				s.stats.Hits++
				s.mu.Unlock()
				return e.val, true, nil
			}
			s.stats.Misses++
			s.mu.Unlock()
			e.ready.Wait()
			return e.val, false, e.err
		}
		s.drop(el) // the key now names another channel: the newer one keeps it
	}
	s.stats.Misses++
	e := &windowEntry[K, V]{key: key, mod: mod, h: h, err: errBuildAbandoned}
	if lent {
		e.own = linalg.Mat{Rows: h.Rows, Cols: h.Cols, Data: slices.Clone(h.Data)}
		e.h = &e.own
	}
	e.ready.Add(1)
	s.m[key] = s.lru.PushFront(e)
	for s.lru.Len() > s.capacity {
		s.drop(s.lru.Back())
	}
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		e.built = e.err == nil
		if el, ok := s.m[key]; ok && !e.built && el.Value == any(e) {
			s.lru.Remove(el)
			delete(s.m, key)
		}
		s.mu.Unlock()
		e.ready.Done()
	}()
	e.val, e.err = build(e.h)
	return e.val, false, e.err
}

// drop evicts one entry. Callers hold the lock.
func (s *WindowStore[K, V]) drop(el *list.Element) {
	delete(s.m, s.lru.Remove(el).(*windowEntry[K, V]).key)
	s.stats.Evictions++
}

// Stats snapshots the store's counters.
func (s *WindowStore[K, V]) Stats() metrics.ChannelCacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
