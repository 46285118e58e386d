// C-RAN: the paper's deployment architecture end to end on one machine. A
// data-center process exposes a QPU *pool* — two simulated annealers plus a
// classical-SA fallback behind a deadline-aware scheduler with a TTS-driven
// anneal-budget planner — over TCP; an access point process estimates uplink
// channels and ships per-subcarrier decode requests over the fronthaul,
// pipelining all subcarriers of an OFDM symbol in flight at once (§1, §5.5,
// §7). Every request carries a target BER, and the run shows the three ways
// the hybrid classical–quantum structure of arXiv:2010.00682 serves one:
// every fourth subcarrier asks for a hard decision, which a budgeted sphere
// search proves ML at admission (backend "certificate": no anneal at all);
// the other subcarriers ask for soft output (per-bit LLRs), which the
// planner sizes a read budget for instead of running the static Na = 100
// configuration, so they share batched, right-sized annealer runs — except
// the odd ones, which carry a deadline shorter than a single anneal and
// route to the classical fallback. The scheduler runs cost-aware
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
	// targetBER is the per-subcarrier QoS target the AP expresses over the
	// fronthaul; the data center's planner turns it into a read budget.
	targetBER = 1e-3
	// tightDeadline is shorter than a single anneal (Ta+Tp = 2 µs), so the
	// planner denies quantum dispatch and requests carrying it must run on
	// the classical SA fallback (and inevitably count as deadline misses —
	// a 1 µs budget is unmeetable by any solver; the fallback still
	// delivers a best-effort decode).
	tightDeadline = 1 * time.Microsecond
	// hardEvery: one subcarrier in hardEvery asks for a hard decision and no
	// deadline — the request the certificate answers.
	hardEvery = 4
)

func main() {
	// --- Data center: a QPU pool behind a fronthaul server. ---
	var pool []backend.Backend
	for _, name := range []string{"qpu0", "qpu1"} {
		qpu, err := backend.NewAnnealer(name, quamax.Options{})
		if err != nil {
			log.Fatal(err)
		}
		pool = append(pool, qpu)
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
		soft     bool
	}
	jobs := make([]job, subcarriers)
	for sc := 0; sc < subcarriers; sc++ {
		bits := src.Bits(users * quamax.QPSK.BitsPerSymbol())
		v := quamax.QPSK.MapGrayVector(bits)
		y := channel.AddAWGN(src, linalg.MulVec(perSC[sc], v), sigma)
		jobs[sc] = job{sc: sc, h: perSC[sc], y: y, txBits: bits, soft: sc%hardEvery != hardEvery-1}
		if jobs[sc].soft && sc%2 == 1 {
			// Odd soft subcarriers carry a deadline no anneal can fit: the
			// planner denies quantum dispatch and they run classically. The
			// rest carry only the target BER.
			jobs[sc].deadline = tightDeadline
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
					NoiseVar: sigma * sigma, Deadline: j.deadline, TargetBER: targetBER,
				})
			} else {
				resp, err = client.DecodeQoS(quamax.QPSK, j.h, j.y, j.deadline, targetBER)
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

	fmt.Printf("\nAP: decoded %d subcarriers × %d users QPSK at %d dB (target BER %g)\n\n",
		subcarriers, users, snrDB, targetBER)
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
