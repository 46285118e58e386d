package core

import (
	"container/list"
	"errors"
	"slices"
	"sync"

	"quamax/internal/detector"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/modulation"
)

// Window is one coherence window as the process holds it: a channel (Mod, H)
// and the key FingerprintChannel mints for it, once, where H enters the
// process (fronthaul registration, precoding.Compile). It carries the
// window's classical state — the sphere program the SNR estimate, the
// certificate and the sphere decoder search, built on first use — so every
// symbol of the window shares one factorization and no store rebuilds it.
// A problem (backend.Problem.Window) and a VP program each carry theirs. It
// references H, which must not change; safe for concurrent use.
type Window struct {
	mod modulation.Modulation
	h   *linalg.Mat
	key ChannelKey

	once   sync.Once
	sphere *detector.SphereProgram
}

// NewWindow mints the window of channel (mod, h): O(Nt·Nr) for the key; the
// sphere program waits for its first use.
func NewWindow(mod modulation.Modulation, h *linalg.Mat) *Window {
	return &Window{mod: mod, h: h, key: FingerprintChannel(mod, h)}
}

// Mod returns the window's modulation.
func (w *Window) Mod() modulation.Modulation { return w.mod }

// Channel returns the window's channel matrix (shared; do not mutate).
func (w *Window) Channel() *linalg.Mat { return w.h }

// Key returns the window's ChannelKey; 0, "no key", for a nil window.
func (w *Window) Key() ChannelKey {
	if w == nil {
		return 0
	}
	return w.key
}

// Sphere returns the window's sphere program, factoring H on first use.
func (w *Window) Sphere() *detector.SphereProgram {
	w.once.Do(func() { w.sphere = detector.CompileSphere(w.mod, w.h) })
	return w.sphere
}

// SphereFor returns the sphere program of channel (mod, h): the window's when
// (mod, h) is the window's channel, else — a nil window, or one a problem
// carries for another channel — a fresh one, never remembered.
func (w *Window) SphereFor(mod modulation.Modulation, h *linalg.Mat) *detector.SphereProgram {
	if w != nil && sameChannel(w.mod, w.h, mod, h) {
		return w.Sphere()
	}
	return detector.CompileSphere(mod, h)
}

// sameChannel reports whether (ma, a) and (mb, b) are one channel: one
// modulation and the same matrix, or one of equal shape and contents.
func sameChannel(ma modulation.Modulation, a *linalg.Mat, mb modulation.Modulation, b *linalg.Mat) bool {
	return ma == mb && (a == b || (a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.Data, b.Data)))
}

// WindowStore is the decoder's memory of compiled channels: one value per
// coherence window, least recently used first out. It looks up by the
// ChannelKey the request carries (its Window's, minted once; no lookup hashes
// H) and verifies a hit: the entry must have been built for this modulation
// and this matrix — the same *linalg.Mat, as every symbol of a registered
// window presents, or else equal shape and contents. A forged, reused or
// colliding key is therefore a miss that replaces the entry, never another
// channel's value. Safe for concurrent use.
//
// A store copies any H it was only lent: a keyed H was registered, and stays
// immutable; one without a key enters the process at the call, from storage
// its caller reuses (a fronthaul slot's inline H).
type WindowStore[V any] struct {
	mu       sync.Mutex
	capacity int
	m        map[ChannelKey]*list.Element
	lru      list.List // of *windowEntry[V], most recent first
	stats    metrics.ChannelCacheStats
}

// windowEntry is one remembered window. mod and h never change after insert;
// val and err are written once, before ready is done.
type windowEntry[V any] struct {
	key   ChannelKey
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
func NewWindowStore[V any](capacity int) *WindowStore[V] {
	return &WindowStore[V]{capacity: capacity, m: make(map[ChannelKey]*list.Element)}
}

// Get returns the value remembered under key for channel (mod, h) and whether
// it was already there. A hit costs one lock, one map lookup, one list move
// and no allocation. On a miss build runs outside the lock, once however many
// callers arrive for the window together (they wait for it, and count as
// misses), and the oldest window past capacity is dropped; it gets the H the
// entry keeps, a copy when the caller only lent h. A build that fails is not
// remembered: its callers get the error and the next one builds again.
func (s *WindowStore[V]) Get(key ChannelKey, mod modulation.Modulation, h *linalg.Mat, lent bool, build func(h *linalg.Mat) (V, error)) (V, bool, error) {
	s.mu.Lock()
	if el, ok := s.m[key]; ok {
		e := el.Value.(*windowEntry[V])
		if sameChannel(e.mod, e.h, mod, h) {
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
	e := &windowEntry[V]{key: key, mod: mod, h: h, err: errBuildAbandoned}
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
func (s *WindowStore[V]) drop(el *list.Element) {
	delete(s.m, s.lru.Remove(el).(*windowEntry[V]).key)
	s.stats.Evictions++
}

// Stats snapshots the store's counters.
func (s *WindowStore[V]) Stats() metrics.ChannelCacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
