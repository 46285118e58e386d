// C-RAN: the paper's deployment architecture end to end on one machine. A
// data-center process exposes a QPU *pool* — two simulated annealers plus a
// classical-SA fallback behind a deadline-aware scheduler with a TTS-driven
// anneal-budget planner — over TCP; an access point process estimates uplink
// channels and ships per-subcarrier decode requests over the fronthaul,
// pipelining all subcarriers of an OFDM symbol in flight at once (§1, §5.5,
// §7). The run shows the tiers of the hybrid classical–quantum structure of
// arXiv:2010.00682 through four kinds of request, one subcarrier in four
// each:
//
//   - a hard decision with a target BER, which a budgeted sphere search
//     proves ML at admission (backend "certificate": no anneal at all);
//   - soft output (per-bit LLRs) with a target BER, which the same search,
//     clipped at the LLR clamp, answers at admission with the exact clamped
//     max-log LLRs;
//   - soft output without a target — best effort — inside a 1 ms deadline:
//     the classical fallback's cost estimate cannot meet it, so these share
//     batched annealer runs at the static Na = 100;
//   - best-effort soft output under a deadline shorter than a single anneal,
//     which routes to the classical fallback.
//
// At 25 dB every request with a target is proved, so the planner, which sizes
// read budgets for the requests the search cannot finish, sees none (its
// stats block reads zero). The scheduler runs cost-aware
// (sched.Config.CostAware): every backend publishes a capability descriptor
// with a $/solve and J/solve cost model, easy QoS classes divert to the
// cheapest solver that still meets their deadline, and the final pool stats
// price each backend's work in micro-USD and millijoules.
//
//	go run ./examples/cran
package main

import (
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"quamax"
	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/fronthaul"
	"quamax/internal/linalg"
	"quamax/internal/qos"
	"quamax/internal/rng"
	"quamax/internal/sched"
)

const (
	users       = 8
	apAntennas  = 8
	subcarriers = 16
	snrDB       = 25
	// targetBER is the QoS target the AP expresses over the fronthaul for
	// the subcarriers that carry one: the data center certifies the request
	// or, where the search cannot finish, plans a read budget for it.
	targetBER = 1e-3
	// annealDeadline fits the annealer's 200 µs estimate but not the SA
	// fallback's ≈ 3 ms, so cost-aware dispatch keeps best-effort requests
	// carrying it on the pool (the simulator runs slower than the modeled
	// device, so they still count as deadline misses on the wall clock).
	annealDeadline = time.Millisecond
	// tightDeadline is shorter than a single anneal (Ta+Tp = 2 µs), so
	// requests carrying it must run on the classical SA fallback (and
	// inevitably count as deadline misses — a 1 µs budget is unmeetable by
	// any solver; the fallback still delivers a best-effort decode).
	tightDeadline = 1 * time.Microsecond
)

// The four kinds of request, by subcarrier index modulo 4.
const (
	softCertified = iota // soft output with a target BER
	softFallback         // best-effort soft output under tightDeadline
	softAnnealed         // best-effort soft output under annealDeadline
	hardCertified        // a hard decision with a target BER
)

func main() {
	// --- Data center: a QPU pool (two annealers on one decoder) behind a
	// fronthaul server. ---
	dec, err := quamax.NewDecoder(quamax.Options{})
	if err != nil {
		log.Fatal(err)
	}
	var pool []backend.Backend
	for _, name := range []string{"qpu0", "qpu1"} {
		pool = append(pool, backend.AnnealerFromDecoder(name, dec))
	}
	planner, err := qos.NewPlanner(nil) // built-in TTS coefficients
	if err != nil {
		log.Fatal(err)
	}
	scheduler, err := sched.New(sched.Config{
		Pool:      pool,
		Fallback:  backend.NewClassicalSA("sa", 128, 100),
		Planner:   planner,
		CostAware: true, // price dispatch with the capability descriptors
		Seed:      99,
	})
	if err != nil {
		log.Fatal(err)
	}
	server := fronthaul.NewPoolServer(scheduler)
	server.Logf = log.Printf
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	go server.Serve(l)
	fmt.Printf("data center: QPU pool listening on %s\n", l.Addr())

	// --- Access point: connect over the fronthaul. ---
	client, err := fronthaul.Dial(l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// One OFDM symbol: a frequency-selective channel across subcarriers
	// (4-tap exponential power-delay profile) carrying QPSK from 8 users.
	src := rng.New(123)
	tdl := channel.TappedDelayLine{NumTaps: 4, Decay: 0.6}
	perSC := tdl.GenerateOFDM(src, apAntennas, users, subcarriers)
	sigma := channel.NoiseSigma(quamax.QPSK, users, snrDB)

	type job struct {
		sc       int
		h        *linalg.Mat
		y        []complex128
		txBits   []byte
		deadline time.Duration
		target   float64
		soft     bool
	}
	jobs := make([]job, subcarriers)
	for sc := 0; sc < subcarriers; sc++ {
		bits := src.Bits(users * quamax.QPSK.BitsPerSymbol())
		v := quamax.QPSK.MapGrayVector(bits)
		y := channel.AddAWGN(src, linalg.MulVec(perSC[sc], v), sigma)
		jobs[sc] = job{sc: sc, h: perSC[sc], y: y, txBits: bits, soft: true}
		switch sc % 4 {
		case softCertified:
			jobs[sc].target = targetBER
		case softFallback:
			jobs[sc].deadline = tightDeadline
		case softAnnealed:
			jobs[sc].deadline = annealDeadline
		case hardCertified:
			jobs[sc].target, jobs[sc].soft = targetBER, false
		}
	}

	// Ship all subcarriers concurrently — the fronthaul client pipelines
	// them on one TCP connection.
	var wg sync.WaitGroup
	type result struct {
		sc      int
		errs    int
		compute float64
		backend string
		batched int
	}
	results := make([]result, subcarriers)
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			var resp *fronthaul.DecodeResponse
			var err error
			if j.soft {
				resp, err = client.DecodeSoft(quamax.QPSK, j.h, j.y, fronthaul.SoftQoS{
					NoiseVar: sigma * sigma, Deadline: j.deadline, TargetBER: j.target,
				})
			} else {
				resp, err = client.DecodeQoS(quamax.QPSK, j.h, j.y, j.deadline, j.target)
			}
			if err != nil {
				log.Fatalf("subcarrier %d: %v", j.sc, err)
			}
			errs := 0
			for i := range j.txBits {
				if resp.Bits[i] != j.txBits[i] {
					errs++
				}
			}
			results[j.sc] = result{
				sc: j.sc, errs: errs,
				compute: resp.ComputeMicros,
				backend: resp.Backend,
				batched: resp.Batched,
			}
		}(j)
	}
	wg.Wait()

	fmt.Printf("\nAP: decoded %d subcarriers × %d users QPSK at %d dB (target BER %g on subcarriers ≡ %d, %d mod 4)\n\n",
		subcarriers, users, snrDB, targetBER, softCertified, hardCertified)
	fmt.Printf("%4s  %10s  %14s  %11s  %7s\n", "sc", "bit errs", "compute (µs)", "backend", "batched")
	totalErrs, totalBits := 0, 0
	for _, r := range results {
		fmt.Printf("%4d  %10d  %14.1f  %11s  %7d\n", r.sc, r.errs, r.compute, r.backend, r.batched)
		totalErrs += r.errs
		totalBits += users * quamax.QPSK.BitsPerSymbol()
	}
	fmt.Printf("\nsymbol BER: %d/%d = %.2e\n", totalErrs, totalBits,
		float64(totalErrs)/float64(totalBits))

	scheduler.Close()
	fmt.Printf("\ndata center pool stats:\n%s\n", scheduler.Stats())
	fmt.Printf("\ndata center planner stats:\n%s\n", planner.Stats())
}
