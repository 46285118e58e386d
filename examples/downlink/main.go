// Downlink: vector-perturbation precoding end to end over the fronthaul. The data center owns the channel estimate for a downlink
// coherence window, so the AP registers H once (Client.RegisterChannel) and
// streams user-data symbol vectors as O(Nu) precode-by-handle frames
// (Client.PrecodeWithChannel). The pool solves each NP-hard VP search
// min_v ‖P(s+τv)‖² on the same annealer stack that serves uplink decodes —
// each problem carrying its VP program's window, so same-window searches
// batch into shared runs over the compiled VP program — and returns the
// perturbation. The example then plays transmitter AND users: it forms
// x = P(s+τv), normalizes transmit power, adds receiver noise, recovers each
// user's symbol with the blind modulo-τ reduction, and compares bit errors
// and effective SNR against plain channel-inversion (zero-forcing) precoding
// at the same power budget.
//
//	go run ./examples/downlink
package main

import (
	"fmt"
	"log"
	"math"
	"net"
	"os"
	"sync"

	"quamax"
	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/fronthaul"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/precoding"
	"quamax/internal/rng"
	"quamax/internal/sched"
)

const (
	users    = 8
	antennas = 8
	windows  = 3  // coherence windows (one estimated H each)
	vectors  = 14 // user-data symbol vectors per window (one LTE slot)
	// One perturbation bit per dimension (v ∈ {−1,0}²): at 8 users that is a
	// 16-spin search the annealer solves nearly optimally, worth ~6 dB of
	// transmit power on Rayleigh channels. The deeper alphabets double the
	// spin count and, as Kasi et al. (arXiv:2102.12540) observe, annealer
	// solution quality falls off with VP problem size faster than the extra
	// lattice freedom pays back.
	perturbBits = 1
	rxSNRdB     = 8.0 // per-user receive SNR at unit power amplification
)

func main() {
	mod := quamax.QPSK
	src := rng.New(7)

	// Data center: a two-QPU pool on one decoder behind the fronthaul TCP
	// protocol — the same pool that would serve uplink decodes.
	dec, err := quamax.NewDecoder(quamax.Options{})
	if err != nil {
		log.Fatal(err)
	}
	var pool []backend.Backend
	for _, name := range []string{"qpu0", "qpu1"} {
		pool = append(pool, backend.AnnealerFromDecoder(name, dec))
	}
	scheduler, err := sched.New(sched.Config{Pool: pool, Seed: 23})
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

	client, err := fronthaul.Dial(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	var (
		vpBits, vpErrs, zfErrs int
		gammaVP, gammaZF       float64
	)
	for w := 0; w < windows; w++ {
		// One channel estimate per coherence window, registered once.
		h := channel.Rayleigh{}.Generate(src, users, antennas)
		prog, err := precoding.Compile(mod, h, perturbBits)
		if err != nil {
			log.Fatal(err)
		}
		rc, err := client.RegisterChannel(mod, h)
		if err != nil {
			log.Fatal(err)
		}

		// A window of symbol vectors precoded by handle, pipelined so the
		// pool can batch same-window searches into shared annealer runs.
		type tx struct {
			bits []byte
			s    []complex128
			resp *fronthaul.PrecodeResponse
			err  error
		}
		txs := make([]tx, vectors)
		var wg sync.WaitGroup
		for i := 0; i < vectors; i++ {
			bits := src.Bits(users * mod.BitsPerSymbol())
			txs[i].bits = bits
			txs[i].s = mod.MapGrayVector(bits)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				txs[i].resp, txs[i].err = client.PrecodeWithChannel(rc, txs[i].s, perturbBits, 0, 0)
			}(i)
		}
		wg.Wait()

		batched := 0
		for i := range txs {
			if txs[i].err != nil {
				log.Fatalf("window %d vector %d: %v", w, i, txs[i].err)
			}
			if txs[i].resp.Batched > batched {
				batched = txs[i].resp.Batched
			}
			ve, ze := simulate(src, prog, txs[i].s, txs[i].bits, txs[i].resp.V)
			vpErrs += ve
			zfErrs += ze
			vpBits += len(txs[i].bits)
			gammaVP += txs[i].resp.Energy
			gammaZF += prog.ZFGamma(txs[i].s)
		}
		fmt.Printf("window %d: %d vectors precoded, largest shared run %d searches\n",
			w, vectors, batched)
	}

	total := float64(windows * vectors)
	fmt.Printf("\nmean transmit power γ: VP %.1f vs channel inversion %.1f (effective SNR gain %+.1f dB)\n",
		gammaVP/total, gammaZF/total, 10*math.Log10(gammaZF/gammaVP))
	fmt.Printf("downlink BER at %g dB: VP %.4f vs channel inversion %.4f\n",
		rxSNRdB, float64(vpErrs)/float64(vpBits), float64(zfErrs)/float64(vpBits))

	l.Close()
	scheduler.Close()
	st := scheduler.Stats()
	fmt.Println()
	metrics.Render(os.Stdout, "pool stats", st.Samples())
	fmt.Printf("\ncompile amortization: %d channel compiles served %d searches (%.0f%% cache hit)\n",
		st.ChannelCache.Misses, st.Completed, 100*st.ChannelCache.HitRate())
}

// simulate plays one downlink transmission twice — VP with the returned
// perturbation, and plain channel inversion — at the same radiated power
// budget Nu·Es (what sending the bare symbols would cost), and counts each
// scheme's bit errors across the users. The base station scales the precoded
// vector to the budget; each user sees s_k + τ·v_k plus noise amplified by
// √(γ/budget) after undoing the (broadcast) scaling — the amplification VP
// exists to minimize — then strips the perturbation with the blind modulo-τ
// reduction and slices.
func simulate(src *rng.Source, prog *precoding.Program, s []complex128, bits []byte, v []complex128) (vpErrs, zfErrs int) {
	mod := prog.DataMod()
	budget := mod.AvgSymbolEnergy() * float64(len(s))
	sigma := math.Sqrt(mod.AvgSymbolEnergy()) * math.Pow(10, -rxSNRdB/20)
	count := func(x []complex128) int {
		gamma := linalg.Norm2(x)
		alpha := math.Sqrt(budget / gamma)
		y := linalg.MulVec(prog.Channel(), x) // = s + τ·v exactly (H·P = I)
		scaled := make([]complex128, len(y))
		for k := range y {
			scaled[k] = y[k] + complex(sigma/alpha, 0)*src.ComplexNorm()
		}
		rx := precoding.Receive(mod, prog.Tau(), scaled)
		errs := 0
		got := mod.DemapGrayVector(rx)
		for i := range bits {
			if got[i] != bits[i] {
				errs++
			}
		}
		return errs
	}
	return count(prog.Transmit(s, v)), count(prog.Transmit(s, make([]complex128, len(s))))
}
