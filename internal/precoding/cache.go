package precoding

import (
	"quamax/internal/core"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/modulation"
)

// DefaultCache is how many compiled VP programs a Cache of size zero
// remembers: the decoder's compiled-channel default, so one serving process
// recognizes as many coherence windows on the downlink as on the uplink.
const DefaultCache = core.DefaultChannelCache

// programKey selects one VP program: the downlink channel's key plus the
// perturbation depth, which changes the alphabet and therefore the program.
type programKey struct {
	ck   core.ChannelKey
	bits int
}

// Cache remembers the compiled VP programs of the most recent coherence
// windows (a core.WindowStore, whose key contract it inherits), so a window's
// symbol vectors pay the channel inversion and coupling compile once. The
// fronthaul server holds one, each Precoder another. Safe for concurrent use.
type Cache struct {
	programs *core.WindowStore[programKey, *Program]
}

// NewCache returns a cache of up to capacity programs (0 selects DefaultCache).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCache
	}
	return &Cache{programs: core.NewWindowStore[programKey, *Program](capacity)}
}

// Get returns the compiled program for (dataMod, h, bits), compiling it on a
// miss. key is the ChannelKey the caller holds for (dataMod, h); 0 mints it
// here, for a caller through whom H enters the process and who only lends it:
// a program compiled on a miss keeps a copy. bits = 0 selects
// DefaultPerturbBits.
func (c *Cache) Get(key core.ChannelKey, dataMod modulation.Modulation, h *linalg.Mat, bits int) (*Program, error) {
	if bits == 0 {
		bits = DefaultPerturbBits
	}
	lent := key == 0
	if lent {
		key = core.FingerprintChannel(dataMod, h)
	}
	prog, _, err := c.programs.Get(programKey{key, bits}, dataMod, h, lent, func(h *linalg.Mat) (*Program, error) { return Compile(dataMod, h, bits) })
	return prog, err
}

// Stats snapshots the cache counters, in the compiled-channel store's shape.
func (c *Cache) Stats() metrics.ChannelCacheStats { return c.programs.Stats() }
