package core

import (
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
// holds H's header itself and shares H's data, which must not change; safe
// for concurrent use.
type Window struct {
	mod modulation.Modulation
	h   linalg.Mat
	key ChannelKey

	once   sync.Once
	sphere *detector.SphereProgram
}

// NewWindow mints the window of channel (mod, h): O(Nt·Nr) for the key; the
// sphere program waits for its first use. The window copies h's header, not
// its data: Channel is the window's own matrix, which a problem built from
// the window presents, so each reader recognizes it by its address.
func NewWindow(mod modulation.Modulation, h *linalg.Mat) *Window {
	return &Window{mod: mod, h: *h, key: FingerprintChannel(mod, h)}
}

// Mod returns the window's modulation.
func (w *Window) Mod() modulation.Modulation { return w.mod }

// Channel returns the window's channel matrix (shared; do not mutate).
func (w *Window) Channel() *linalg.Mat { return &w.h }

// Key returns the window's ChannelKey; 0, "no key", for a nil window.
func (w *Window) Key() ChannelKey {
	if w == nil {
		return 0
	}
	return w.key
}

// Sphere returns the window's sphere program, factoring H on first use.
func (w *Window) Sphere() *detector.SphereProgram {
	w.once.Do(func() { w.sphere = detector.CompileSphere(w.mod, &w.h) })
	return w.sphere
}

// SphereFor returns the sphere program of channel (mod, h): the window's when
// (mod, h) is the window's channel, else — a nil window, or one a problem
// carries for another channel — a fresh one, never remembered.
func (w *Window) SphereFor(mod modulation.Modulation, h *linalg.Mat) *detector.SphereProgram {
	if w.holds(mod, h) {
		return w.Sphere()
	}
	return detector.CompileSphere(mod, h)
}

// holds reports whether (mod, h) is the window's channel; never for a nil
// window.
func (w *Window) holds(mod modulation.Modulation, h *linalg.Mat) bool {
	return w != nil && sameChannel(w.mod, &w.h, mod, h)
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
//
// A value lives in its entry and is built there. A decode pins the entry it
// runs through (pin, unpin); Get hands its value out for keeps (Compile).
// When the store drops a built entry that nothing pins and Get never handed
// out, it keeps the entry as its one spare — one evicted while pinned becomes
// the spare at its last unpin — and the next miss rebuilds the spare's value
// in place, in the storage the evicted window's build left. So a miss on a
// full store allocates only what the value's build cannot reuse.
type WindowStore[V any] struct {
	mu         sync.Mutex
	capacity   int
	m          map[ChannelKey]*windowEntry[V]
	head, tail *windowEntry[V] // the entries in m, most recently used first
	spare      *windowEntry[V] // a dropped entry whose value the next miss rebuilds
	stats      metrics.ChannelCacheStats
}

// windowEntry is one remembered window. Its fields but val and err change
// only under the store lock; val and err are written by the one build, before
// ready is done, and the entry is rebuilt only once nothing holds it.
type windowEntry[V any] struct {
	prev, next *windowEntry[V]
	key        ChannelKey
	mod        modulation.Modulation
	h          *linalg.Mat
	own        linalg.Mat // h's storage when the caller only lent it
	built      bool       // val is in
	kept       bool       // Get handed val out: never rebuilt
	dropped    bool       // out of the map: spare material once unpinned
	pins       int        // decodes running through val
	ready      sync.WaitGroup
	val        V
	err        error
}

var errBuildAbandoned = errors.New("core: the build of this window's entry panicked")

// NewWindowStore returns a store that remembers up to capacity windows.
func NewWindowStore[V any](capacity int) *WindowStore[V] {
	return &WindowStore[V]{capacity: capacity, m: make(map[ChannelKey]*windowEntry[V], min(capacity, 1024))}
}

// Get returns the value remembered under key for channel (mod, h), for keeps
// — the entry is never rebuilt for another window — and whether it was
// already there. A miss builds it, as pin does.
func (s *WindowStore[V]) Get(key ChannelKey, mod modulation.Modulation, h *linalg.Mat, lent bool, build func(v *V, h *linalg.Mat) error) (*V, bool, error) {
	e, hit, err := s.pin(key, mod, h, lent, true, build)
	if err != nil {
		return nil, false, err
	}
	return &e.val, hit, nil
}

// pin returns the entry remembered under key for channel (mod, h) and
// whether it was already there: held for keeps when keep is set (Get), else
// pinned — its value is not rebuilt for another window until unpin. A hit
// costs one lock, one map lookup, one list move and no allocation. On a miss
// the oldest window past capacity is dropped first, and build runs outside
// the lock into the spare's value when there is one (a zero value
// otherwise), once however many callers arrive for the window together: they
// wait for it, and count as hits, for they compiled nothing. The build gets
// the H the entry keeps, a copy when the caller only lent h. A build that
// fails is not remembered: its callers get the error, hold nothing, and the
// next one builds again.
func (s *WindowStore[V]) pin(key ChannelKey, mod modulation.Modulation, h *linalg.Mat, lent, keep bool, build func(v *V, h *linalg.Mat) error) (*windowEntry[V], bool, error) {
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		if sameChannel(e.mod, e.h, mod, h) {
			s.stats.Hits++
			s.hold(e, keep)
			if e.built {
				s.toFront(e)
				s.mu.Unlock()
				return e, true, nil
			}
			s.mu.Unlock()
			e.ready.Wait()
			if e.err != nil {
				return nil, false, e.err // a failed entry is nobody's: there is no hold to release
			}
			return e, true, nil
		}
		s.drop(e) // the key now names another channel: the newer one keeps it
	}
	s.stats.Misses++
	for len(s.m) >= s.capacity && s.tail != nil {
		s.drop(s.tail)
	}
	e := s.spare
	if e == nil {
		e = new(windowEntry[V])
	}
	s.spare = nil
	e.key, e.mod, e.h, e.built, e.kept, e.dropped, e.pins, e.err = key, mod, h, false, false, false, 0, errBuildAbandoned
	if lent {
		e.own = linalg.Mat{Rows: h.Rows, Cols: h.Cols, Data: append(e.own.Data[:0], h.Data...)}
		e.h = &e.own
	}
	s.hold(e, keep)
	e.ready.Add(1)
	s.m[key] = e
	s.pushFront(e)
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		e.built = e.err == nil
		if !e.built && s.m[key] == e {
			s.unlink(e)
			delete(s.m, key)
		}
		e.ready.Done()
		s.mu.Unlock()
	}()
	e.err = build(&e.val, e.h)
	if e.err != nil {
		return nil, false, e.err
	}
	return e, false, nil
}

// hold records one more holder of e. Callers hold the lock.
func (s *WindowStore[V]) hold(e *windowEntry[V], keep bool) {
	if keep {
		e.kept = true
	} else {
		e.pins++
	}
}

// unpin releases one pin on e: a dropped entry nothing pins any more becomes
// the spare.
func (s *WindowStore[V]) unpin(e *windowEntry[V]) {
	s.mu.Lock()
	e.pins--
	if e.dropped {
		s.recycle(e)
	}
	s.mu.Unlock()
}

// drop evicts one entry. Callers hold the lock.
func (s *WindowStore[V]) drop(e *windowEntry[V]) {
	s.unlink(e)
	delete(s.m, e.key)
	s.stats.Evictions++
	e.dropped = true
	s.recycle(e)
}

// recycle makes a dropped entry the spare if its value may be rebuilt: built,
// pinned by no decode, never handed out by Get, and no spare yet. Callers
// hold the lock.
func (s *WindowStore[V]) recycle(e *windowEntry[V]) {
	if e.built && !e.kept && e.pins == 0 && s.spare == nil {
		s.spare = e
	}
}

// toFront makes listed entry e the most recently used. Callers hold the lock.
func (s *WindowStore[V]) toFront(e *windowEntry[V]) {
	if s.head != e {
		s.unlink(e)
		s.pushFront(e)
	}
}

// pushFront lists e, unlisted, as the most recently used. Callers hold the
// lock.
func (s *WindowStore[V]) pushFront(e *windowEntry[V]) {
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	} else {
		s.tail = e
	}
	s.head = e
}

// unlink takes e out of the recency list. Callers hold the lock.
func (s *WindowStore[V]) unlink(e *windowEntry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// Stats snapshots the store's counters.
func (s *WindowStore[V]) Stats() metrics.ChannelCacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
