// Tracedriven: the paper's §5.5 evaluation flow on the serving path — decode
// 8×8 channel uses drawn from a many-antenna trace (the synthetic Argos
// stand-in, or a real QMTR file produced by cmd/tracegen) at 25–35 dB SNR.
// Instead of calling the decoder directly, every channel use is dispatched
// through the QPU pool scheduler with a target BER, so the replay exercises
// exactly what a C-RAN data center runs: admission first searches each hard
// decode from its zero-forcing decision and answers the ones the search
// proves ML (backend "certificate" — at these SNRs, all of them); anything
// left is planned by the TTS planner, shares batched annealer runs, or falls
// back to classical SA (examples/cran sends soft requests to show that half).
//
// Each channel use is replayed as a COHERENCE WINDOW: one estimated H
// carries several OFDM symbols (paper footnote 2), so all of a window's
// symbols are dispatched carrying the channel's window (core.NewWindow).
// The pool compiles each channel once (couplings, embedding, prepared
// physical program), gathers same-window symbols into shared annealer runs,
// and only rewrites per-symbol biases — the channel_cache columns of the final
// report show the amortization (they read 0 when the certificate answered
// every request, as it does on the synthetic trace).
//
// The replay runs fully instrumented: a telemetry recorder traces every
// request through admit → plan → queue → gather → compile → solve → respond,
// and the run ends with the data center's report (pool and planner counters
// and the live per-stage latency table, printed by metrics.Render), the
// deadline-slack histogram, and the trace-to-counter reconciliation the
// telemetry plane guarantees (submitted == completed + failed == traces).
// Pass -trace-out to also write the JSON dump tools/benchjson ingests.
//
// With -multiuser the replay switches to the data-center view (PR 8): a
// Zipf-skewed multi-cell request trace (internal/trace.GenerateMultiUser) is
// dispatched through the sharded router front tier — N independent scheduler
// pools, channel-affinity consistent hashing keeping every coherence window's
// compiled channel sticky to one shard — and the run ends with the fleet's
// report (its shard table lists each shard's counters and their total) and
// the affinity evidence.
//
//	go run ./examples/tracedriven [-trace-out dump.json] [trace.qmtr]
//	go run ./examples/tracedriven -multiuser [-shards 4]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"quamax"
	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/core"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/mimo"
	"quamax/internal/qos"
	"quamax/internal/rng"
	"quamax/internal/router"
	"quamax/internal/sched"
	"quamax/internal/telemetry"
	"quamax/internal/trace"
)

const (
	uses      = 10
	pick      = 8
	window    = 4 // OFDM symbols per coherence window (one H, many y)
	targetBER = 1e-4
	// deadline is each dispatch's processing budget: generous enough that the
	// planner's budget fits, tight enough that the slack histogram is
	// informative about headroom.
	deadline = 250 * time.Millisecond
)

func main() {
	traceOut := flag.String("trace-out", "", "write the JSON telemetry dump here")
	multiuser := flag.Bool("multiuser", false, "replay a multi-cell request trace through the sharded router tier")
	shards := flag.Int("shards", 4, "scheduler pools behind the router (with -multiuser)")
	flag.Parse()
	if *multiuser {
		runMultiUser(*shards)
		return
	}
	src := rng.New(2024)

	var ds *trace.Dataset
	var err error
	if flag.NArg() > 0 {
		ds, err = trace.Load(flag.Arg(0))
		fmt.Printf("loaded trace %s\n", flag.Arg(0))
	} else {
		cfg := trace.DefaultGeneratorConfig()
		cfg.Uses = uses
		ds, err = trace.Generate(src, cfg)
		fmt.Println("synthesized Argos-like 96x8 trace (pass a .qmtr path to use a real one)")
	}
	if err != nil {
		log.Fatal(err)
	}
	ds.NormalizeAveragePower()

	// Data center: two simulated QPUs on one decoder, a classical-SA
	// fallback, and the TTS-driven anneal-budget planner (built-in
	// coefficients), all feeding one telemetry recorder.
	rec := telemetry.New(telemetry.Config{})
	dec, err := quamax.NewDecoder(quamax.Options{AmortizeParallel: true})
	if err != nil {
		log.Fatal(err)
	}
	dec.SetTelemetry(rec)
	var pool []backend.Backend
	for _, name := range []string{"qpu0", "qpu1"} {
		pool = append(pool, backend.AnnealerFromDecoder(name, dec))
	}
	planner, err := qos.NewPlanner(nil)
	if err != nil {
		log.Fatal(err)
	}
	planner.Telemetry = rec
	scheduler, err := sched.New(sched.Config{
		Pool:      pool,
		Fallback:  backend.NewClassicalSA("sa", 128, 100),
		Planner:   planner,
		Seed:      7,
		Telemetry: rec,
	})
	if err != nil {
		log.Fatal(err)
	}

	for _, mod := range []quamax.Modulation{quamax.BPSK, quamax.QPSK} {
		fmt.Printf("\n%v over %d coherence windows × %d symbols (8 of %d antennas per use, 25-35 dB, target BER %g):\n",
			mod, uses, window, ds.Antennas, targetBER)

		type symbol struct {
			in  *mimo.Instance
			win *core.Window
		}
		type windowJobs struct {
			snr     float64
			symbols []symbol
		}
		jobs := make([]windowJobs, uses)
		for use := 0; use < uses; use++ {
			h, err := ds.Sample(src, use, pick)
			if err != nil {
				log.Fatal(err)
			}
			snr := 25 + 10*src.Float64()
			win := core.NewWindow(mod, h)
			w := windowJobs{snr: snr, symbols: make([]symbol, window)}
			// One channel estimate, `window` transmitted symbols through it.
			for sym := 0; sym < window; sym++ {
				bits := src.Bits(ds.Users * mod.BitsPerSymbol())
				inst, err := mimo.FromParts(src, mimo.Config{
					Mod: mod, Nt: ds.Users, Nr: pick,
					Channel: channel.Fixed{H: h, Label: "trace"}, SNRdB: snr,
				}, h, bits)
				if err != nil {
					log.Fatal(err)
				}
				w.symbols[sym] = symbol{in: inst, win: win}
			}
			jobs[use] = w
		}

		// Dispatch every symbol of every window concurrently — the §5.5
		// opportunity to parallelize different problems, here expressed as
		// pool pressure that the coherence-aware scheduler turns into shared
		// batched runs over already-compiled channels.
		type result struct {
			res *backend.Result
			err error
		}
		results := make([][]result, uses)
		var wg sync.WaitGroup
		for use := range jobs {
			results[use] = make([]result, window)
			for sym, sb := range jobs[use].symbols {
				wg.Add(1)
				go func(use, sym int, sb symbol) {
					defer wg.Done()
					// No wall deadline: the target BER alone drives the
					// planned budget.
					res, err := scheduler.Dispatch(context.Background(), &backend.Problem{
						Mod: sb.in.Mod, H: sb.win.Channel(), Y: sb.in.Y,
						TargetBER: targetBER, Window: sb.win,
					}, deadline)
					results[use][sym] = result{res, err}
				}(use, sym, sb)
			}
		}
		wg.Wait()

		fmt.Printf("%4s  %8s  %10s  %14s  %10s\n",
			"use", "SNR(dB)", "bit errs", "compute (µs)", "backends")
		for use, rs := range results {
			errs, compute := 0, 0.0
			backends := map[string]bool{}
			for sym, r := range rs {
				if r.err != nil {
					log.Fatalf("use %d symbol %d: %v", use, sym, r.err)
				}
				errs += jobs[use].symbols[sym].in.BitErrors(r.res.Bits)
				compute += r.res.ComputeMicros
				backends[r.res.Backend] = true
			}
			names := ""
			for name := range backends {
				if names != "" {
					names += "+"
				}
				names += name
			}
			fmt.Printf("%4d  %8.1f  %10d  %14.1f  %10s\n",
				use, jobs[use].snr, errs, compute, names)
		}
	}

	scheduler.Close()
	st, sn := scheduler.Stats(), rec.Snapshot()
	set := metrics.Collect(st.Samples(), sn.Samples(), planner.Stats().Samples())

	// The data center's report: pool and planner counters, and the live
	// per-stage breakdown of where each request's wall time went.
	fmt.Println()
	metrics.Render(os.Stdout, "data center", set)

	// Deadline slack: how much of each request's budget was left at respond
	// time (every dispatch above carried the same deadline).
	fmt.Printf("\ndeadline slack (budget %v, %d met / %d missed):\n",
		deadline, sn.SlackMet.Count, sn.SlackMissed.Count)
	printSlackHistogram(sn.SlackMet)

	// The reconciliation the telemetry plane guarantees: every submitted
	// request finished as exactly one trace.
	fmt.Printf("\nreconciliation: submitted=%d completed+failed=%d traces=%d (compile cache %d/%d hits)\n",
		st.Submitted, st.Completed+st.Failed, sn.Traces, sn.CompileHits, sn.CompileHits+sn.CompileMisses)

	if *traceOut != "" {
		if err := telemetry.BuildDump(rec, set).WriteFile(*traceOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote telemetry dump (%d traces) to %s\n", rec.TraceCount(), *traceOut)
	}
}

// printSlackHistogram renders the nonzero buckets of a slack histogram as
// ASCII bars, one row per occupied latency bucket.
func printSlackHistogram(h metrics.Hist) {
	if h.Count == 0 {
		fmt.Println("  (no deadline-bearing requests)")
		return
	}
	var peak uint64
	for _, c := range h.Counts {
		if c > peak {
			peak = c
		}
	}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		bar := make([]byte, (40*c+peak-1)/peak)
		for j := range bar {
			bar[j] = '#'
		}
		fmt.Printf("  ≤%9.0fµs %6d %s\n", metrics.BucketBound(i), c, bar)
	}
}

// runMultiUser is the -multiuser replay: a Zipf multi-cell request trace
// through the router-fronted shard fleet.
func runMultiUser(nShards int) {
	if nShards < 1 {
		log.Fatal("need at least one shard")
	}
	src := rng.New(5005)
	cfg := trace.DefaultMultiUserConfig()
	cfg.Cells = 16
	// A compact population keeps users returning, so coherence windows are
	// revisited and the per-shard channel caches actually amortize.
	cfg.Users = 64
	cfg.Requests = 240
	cfg.WindowUses = 8
	cfg.Antennas, cfg.CellUsers = 4, 4
	tr, err := trace.GenerateMultiUser(src, cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Dataset() shares the window matrices, so normalizing it normalizes the
	// per-request channels in place.
	tr.Dataset().NormalizeAveragePower()
	fmt.Printf("multi-user trace: %d requests, %d cells (Zipf s=%g), %d coherence windows\n",
		len(tr.Requests), tr.Cells, cfg.ZipfS, tr.Windows)

	// The shard fleet: one QPU pool + SA fallback per shard, one shared
	// telemetry recorder (traces carry the shard index).
	rec := telemetry.New(telemetry.Config{})
	var schedulers []*sched.Scheduler
	var shards []router.Shard
	for i := 0; i < nShards; i++ {
		dec, err := quamax.NewDecoder(quamax.Options{AmortizeParallel: true})
		if err != nil {
			log.Fatal(err)
		}
		dec.SetTelemetry(rec)
		s, err := sched.New(sched.Config{
			Pool:      []backend.Backend{backend.AnnealerFromDecoder(fmt.Sprintf("s%d/qpu0", i), dec)},
			Fallback:  backend.NewClassicalSA(fmt.Sprintf("s%d/sa", i), 128, 100),
			Seed:      int64(100 + i),
			ShardID:   i,
			Telemetry: rec,
		})
		if err != nil {
			log.Fatal(err)
		}
		schedulers = append(schedulers, s)
		shards = append(shards, s)
	}
	rt, err := router.New(router.Config{Shards: shards, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	// The whole trace is offered at once, so per-request budgets must absorb
	// the queueing delay of 240 requests on nShards single-QPU pools.
	const muDeadline = 10 * time.Second

	const mod = quamax.BPSK
	type outcome struct {
		shard int
		res   *backend.Result
		err   error
	}
	outcomes := make([]outcome, len(tr.Requests))
	var wg sync.WaitGroup
	windows := make(map[*linalg.Mat]*core.Window) // a user's window shares one H
	for i, r := range tr.Requests {
		win := windows[r.H]
		if win == nil {
			win = core.NewWindow(mod, r.H)
			windows[r.H] = win
		}
		bits := src.Bits(cfg.CellUsers * mod.BitsPerSymbol())
		inst, err := mimo.FromParts(src, mimo.Config{
			Mod: mod, Nt: cfg.CellUsers, Nr: cfg.Antennas,
			Channel: channel.Fixed{H: r.H, Label: "cell"}, SNRdB: 28,
		}, r.H, bits)
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(i int, win *core.Window, inst *mimo.Instance) {
			defer wg.Done()
			res, derr := rt.Dispatch(context.Background(), &backend.Problem{
				Mod: inst.Mod, H: win.Channel(), Y: inst.Y,
				TargetBER: targetBER, Window: win,
			}, muDeadline)
			outcomes[i] = outcome{shard: rt.ShardFor(win.Key()), res: res, err: derr}
		}(i, win, inst)
	}
	wg.Wait()
	for _, s := range schedulers {
		s.Close()
	}

	for i, o := range outcomes {
		if o.err != nil {
			log.Fatalf("request %d: %v", i, o.err)
		}
	}

	// The shard table: affinity keeps each window on one shard, so each
	// shard's channel cache amortizes its own windows.
	fmt.Println()
	metrics.Render(os.Stdout, "shard fleet", rt.Samples())
	agg := rt.Stats()
	fmt.Printf("reconciliation: submitted=%d completed+failed=%d across %d shards\n",
		agg.Submitted, agg.Completed+agg.Failed, nShards)

	// Shard attribution rides the telemetry traces too.
	perShard := make([]int, nShards)
	for _, t := range rec.Traces() {
		perShard[t.Shard]++
	}
	fmt.Printf("telemetry traces per shard: %v\n", perShard)
}
