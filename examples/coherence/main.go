// Coherence: the registered-channel fronthaul flow end to end. An access
// point estimates one uplink channel per coherence window (paper footnote 2)
// and decodes MANY OFDM symbols through it, so instead of shipping H inline
// with every received vector, the AP registers the channel once
// (Client.RegisterChannel) and then streams y-only decode-by-handle frames
// (Client.DecodeWithChannel). The data center compiles the channel once —
// Ising couplings, clique embedding, prepared physical program — batches
// same-window symbols into shared annealer runs, and rewrites only the
// per-symbol biases; the pool's channel-cache stats show the amortization.
//
//	go run ./examples/coherence
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"quamax"
	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/fronthaul"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/rng"
	"quamax/internal/sched"
)

const (
	users   = 4
	windows = 3  // coherence windows (one estimated H each)
	symbols = 14 // OFDM symbols per window (one LTE slot)
)

func main() {
	mod := quamax.QPSK
	src := rng.New(42)

	// Data center: a two-QPU pool behind the fronthaul TCP protocol. Its
	// annealers share one decoder, so each window compiles once.
	dec, err := quamax.NewDecoder(quamax.Options{})
	if err != nil {
		log.Fatal(err)
	}
	var pool []backend.Backend
	for _, name := range []string{"qpu0", "qpu1"} {
		pool = append(pool, backend.AnnealerFromDecoder(name, dec))
	}
	scheduler, err := sched.New(sched.Config{Pool: pool, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	server := fronthaul.NewPoolServer(scheduler)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go server.Serve(l)
	fmt.Printf("data center listening on %s (fronthaul protocol v%d)\n",
		l.Addr(), fronthaul.ProtocolVersion)

	// Access point side.
	client, err := fronthaul.Dial(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	started := time.Now()
	totalBits, totalErrs := 0, 0
	for w := 0; w < windows; w++ {
		// One channel estimate per coherence window...
		h := channel.RandomPhase{}.Generate(src, users, users)
		rc, err := client.RegisterChannel(mod, h)
		if err != nil {
			log.Fatal(err)
		}
		// ...and a whole window of symbols decoded by handle, pipelined so
		// the pool can gather them into shared runs over the compiled
		// channel.
		type sym struct {
			bits []byte
			resp *fronthaul.DecodeResponse
			err  error
		}
		syms := make([]sym, symbols)
		var wg sync.WaitGroup
		for s := 0; s < symbols; s++ {
			bits := src.Bits(users * mod.BitsPerSymbol())
			y := channel.AddAWGN(src, linalg.MulVec(h, mod.MapGrayVector(bits)), 0.02)
			syms[s].bits = bits
			wg.Add(1)
			go func(s int, y []complex128) {
				defer wg.Done()
				syms[s].resp, syms[s].err = client.DecodeWithChannel(rc, y, 0, 0)
			}(s, y)
		}
		wg.Wait()

		errs, batched := 0, 0
		for s := range syms {
			if syms[s].err != nil {
				log.Fatalf("window %d symbol %d: %v", w, s, syms[s].err)
			}
			for i, b := range syms[s].bits {
				totalBits++
				if syms[s].resp.Bits[i] != b {
					errs++
				}
			}
			if syms[s].resp.Batched > batched {
				batched = syms[s].resp.Batched
			}
		}
		totalErrs += errs
		fmt.Printf("window %d: %d symbols decoded, %d bit errors, largest shared run %d symbols\n",
			w, symbols, errs, batched)
	}
	elapsed := time.Since(started)
	fmt.Printf("\n%d symbols in %v (%.0f symbols/s), BER %g\n",
		windows*symbols, elapsed.Round(time.Millisecond),
		float64(windows*symbols)/elapsed.Seconds(),
		float64(totalErrs)/float64(totalBits))

	l.Close()
	scheduler.Close()
	st := scheduler.Stats()
	fmt.Println()
	metrics.Render(os.Stdout, "pool stats", st.Samples())
	fmt.Printf("\ncompile amortization: %d channel compiles served %d decodes (%.0f%% cache hit)\n",
		st.ChannelCache.Misses, st.Completed, 100*st.ChannelCache.HitRate())
}
