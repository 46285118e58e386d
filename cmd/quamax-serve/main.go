// Command quamax-serve runs the data-center side of the C-RAN architecture:
// a pool of simulated QPUs plus classical solver backends behind the
// fronthaul TCP protocol (paper §1, §7), scheduled with deadline-aware
// hybrid dispatch and a TTS-driven anneal-budget planner.
// Access points connect with internal/fronthaul.Dial (see examples/cran).
//
//	quamax-serve -listen :9370 -pool 4 -backends sa -deadline 2ms -target-ber 1e-4
//
// -pool sets the number of simulated annealer workers, which share one
// decoder and so one compiled program per coherence window; -backends appends
// classical solvers ("sa", "sphere", "pt" — plain simulated annealing, the
// exact sphere decoder, or replica-exchange parallel tempering; "sa" and
// "pt" run the device simulator's own sweep body) as extra pool workers, the
// first of which also serves as the deadline fallback; -deadline and
// -target-ber are the default per-request budget and QoS target when the AP
// does not send its own. The annealers run the paper's operating point
// (quamax.Options: Na = 100, Ta = Tp = 1 µs, pause at 0.35, |J_F| = 4 on the
// improved range), "sa" runs 100 restarts of 128 sweeps, and "pt" the
// engine's default ladders. With a "pt" backend present the planner also
// sizes a replica-exchange budget (sweeps, then ladders, below the engine
// defaults) into every classical verdict, so deadline-denied requests run the
// most PT effort that fits. The planner (disable with -planner=false) sizes
// each request's read budget from a fitted TTS table: -tts-table names a
// table produced by
//
//	quamax-serve -calibrate -tts-table tts.json
//
// which measures the simulator across the serving grid, writes the fit, and
// exits; without a table the built-in coefficients apply. APs register an
// estimated channel once per coherence window (fronthaul RegisterChannel)
// and decode its symbols by handle, so the pool compiles H once and only
// rewrites annealer biases per symbol. Soft-decode requests (per-bit LLRs
// from the anneal read ensemble, for soft-decision FEC chains) that carry no
// LLR bound are clamped and quantized at softout.DefaultClamp, and precode
// requests that carry no perturbation depth search precoding.DefaultPerturbBits
// per dimension. -telemetry-addr starts the live telemetry plane: an HTTP
// listener serving Prometheus text metrics at /metrics, the recent-trace ring
// as JSON at /traces, and the standard net/http/pprof profiling endpoints at
// /debug/pprof/. The same sample set /metrics renders answers fronthaul
// stats polls (`quamax -top addr` / `-watch`), with or without this listener.
// -trace-out writes a JSON telemetry dump (per-stage latency summaries plus
// the trace ring, ingestible by tools/benchjson -traces) on shutdown. On
// SIGINT/SIGTERM the server stops accepting connections, drains queued work,
// and prints the pool and planner statistics.
//
// -cost-aware turns on fleet-economics dispatch: every backend publishes a
// capability descriptor (latency model, $/solve, J/solve — internal/backend
// Capabilities), and the scheduler diverts requests whose planned anneal
// budget is classically easy (at most sched.DefaultCostEasyReads) to the cheapest
// backend whose latency estimate still meets the deadline. Per-backend spend
// and energy counters are series of the exported sample set (`quamax -top`,
// /metrics). cmd/fleetsim sweeps QPU-count × traffic-mix grids over
// the same scheduler to pick the cost-optimal fleet shape offline.
//
// -shards N splits the data center into N independent scheduler pools behind
// a channel-affinity router (internal/router): every -pool/-backends worker
// set is instantiated per shard, consistent hashing on the channel
// fingerprint keeps each registered coherence window's compiled program
// sticky to one shard, un-keyed requests balance by power-of-two-choices, and
// -shed-threshold arms tagged backpressure shedding when a shard's
// deadline-miss EWMA climbs past it. -pipeline-depth bounds the per-connection
// in-flight window of the pipelined fronthaul (0 = default).
// Every pool series is exported per shard (a shard label), with the router's
// shed counts and miss EWMAs beside them; the shutdown report prints the
// per-shard PoolStats and their merge.
//
// -health arms the solver-health plane (internal/health): every solve feeds
// per-backend × per-class anneal-quality baselines, a Page–Hinkley drift
// detector scores each backend Healthy/Degraded/Quarantined, the scheduler
// skips quarantined members and re-admits them through known-ground-state
// canary probes, and a per-shard SLO burn-rate tracker (deadline-miss and
// BER budgets, health.DefaultMissBudget and health.DefaultBERBudget,
// fast+slow window alerting) folds into the router's shed decision. The
// health view joins the exported sample set (quamax_backend_health,
// quamax_slo_burn_rate, ...).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"quamax"
	"quamax/internal/backend"
	"quamax/internal/fronthaul"
	"quamax/internal/health"
	"quamax/internal/metrics"
	"quamax/internal/qos"
	"quamax/internal/router"
	"quamax/internal/sched"
	"quamax/internal/telemetry"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:9370", "TCP listen address")
		pool     = flag.Int("pool", 1, "number of simulated QPU workers in the pool")
		backends = flag.String("backends", "sa", "comma-separated classical backends to add (sa, sphere, pt); first doubles as the deadline fallback; empty disables")
		deadline = flag.Duration("deadline", 0, "default per-request deadline (0 = none)")
		batch    = flag.Bool("batch", true, "batch compatible requests into shared embedding slots")
		seed     = flag.Int64("seed", 1, "solver random seed")

		telemetryAddr = flag.String("telemetry-addr", "", "HTTP listen address for the telemetry plane: /metrics (Prometheus), /traces (JSON ring) and /debug/pprof/ (empty = disabled)")
		traceOut      = flag.String("trace-out", "", "write a JSON telemetry dump (per-stage summaries + trace ring) here on shutdown")

		shardsN       = flag.Int("shards", 1, "independent scheduler pools behind the channel-affinity router (the full -pool/-backends worker set per shard)")
		pipeDepth     = flag.Int("pipeline-depth", 0, "per-connection in-flight request window (0 = default)")
		shedThreshold = flag.Float64("shed-threshold", 0, "deadline-miss EWMA above which a shard sheds keyed load with a tagged error (0 = never shed)")

		costAware = flag.Bool("cost-aware", false, "divert planner-sized easy requests to the cheapest backend by $/solve (capability descriptors) when QPU reads buy no extra QoS")

		healthOn = flag.Bool("health", false, "enable the solver-health plane: per-backend anneal-quality drift detection, quarantine gating with canary re-admission probes, and per-shard SLO burn-rate tracking")

		planner   = flag.Bool("planner", true, "plan per-request anneal budgets from the TTS model")
		targetBER = flag.Float64("target-ber", 0, "default per-request target BER when the AP sends none (0 = none)")
		ttsTable  = flag.String("tts-table", "", "fitted TTS table (JSON); empty = built-in coefficients")
		calibrate = flag.Bool("calibrate", false, "fit a TTS table on the local simulator, write it to -tts-table, and exit")
	)
	flag.Parse()

	if *calibrate {
		path := *ttsTable
		if path == "" {
			path = "tts.json"
		}
		tab, err := qos.Calibrate(qos.CalibrationConfig{
			Reverse: true,
			Seed:    *seed,
			Logf:    log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := tab.Save(path); err != nil {
			log.Fatal(err)
		}
		log.Printf("quamax-serve: wrote %d fitted points to %s", len(tab.Points), path)
		return
	}

	if *pool < 1 {
		fmt.Fprintln(os.Stderr, "quamax-serve: -pool must be at least 1")
		os.Exit(1)
	}
	// One recorder feeds all exports: the sample set (HTTP plane and stats
	// frames) and the shutdown dump. Left nil (zero overhead) when no export
	// is asked for.
	var rec *telemetry.Recorder
	if *telemetryAddr != "" || *traceOut != "" {
		rec = telemetry.New(telemetry.Config{})
	}
	if *shardsN < 1 {
		fmt.Fprintln(os.Stderr, "quamax-serve: -shards must be at least 1")
		os.Exit(1)
	}
	// Validate -backends (and note a PT backend for planner budgets) before
	// building any shard's worker set.
	havePT := false
	if *backends != "" {
		for _, name := range strings.Split(*backends, ",") {
			switch strings.TrimSpace(name) {
			case "sa", "sphere", "":
			case "pt":
				havePT = true
			default:
				fmt.Fprintf(os.Stderr, "quamax-serve: unknown backend %q (want sa, sphere or pt)\n", name)
				os.Exit(1)
			}
		}
	}
	// buildWorkers instantiates one shard's worker set: its annealers share
	// one decoder, so a window compiles once per shard whichever annealer
	// serves its symbols. prefix namespaces the backend names ("" for a
	// single pool, "sN/" per shard) so per-shard PoolStats merge without
	// colliding. opts keeps the decoders' effective options for the startup
	// line.
	var opts quamax.Options
	buildWorkers := func(prefix string) ([]backend.Backend, backend.Backend) {
		dec, err := quamax.NewDecoder(quamax.Options{AmortizeParallel: true})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts = dec.Options()
		if rec != nil {
			dec.SetTelemetry(rec)
		}
		var workers []backend.Backend
		for i := 0; i < *pool; i++ {
			workers = append(workers, backend.AnnealerFromDecoder(fmt.Sprintf("%sqpu%d", prefix, i), dec))
		}
		var fallback backend.Backend
		if *backends != "" {
			for _, name := range strings.Split(*backends, ",") {
				var be backend.Backend
				switch strings.TrimSpace(name) {
				case "sa":
					be = backend.NewClassicalSA(prefix+"sa", 128, 100)
				case "sphere":
					be = backend.NewSphere(prefix+"sphere", 1<<20)
				case "pt":
					be = backend.NewParallelTempering(prefix+"pt", 0, 0, 0)
				default:
					continue
				}
				workers = append(workers, be)
				if fallback == nil {
					fallback = be
				}
			}
		}
		return workers, fallback
	}

	var budgetPlanner *qos.Planner
	if *planner {
		var table *qos.Table
		if *ttsTable != "" {
			t, err := qos.Load(*ttsTable)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			table = t
			log.Printf("quamax-serve: loaded TTS table %s (%d points)", *ttsTable, len(t.Points))
		} else {
			log.Printf("quamax-serve: using built-in TTS coefficients (run -calibrate to refit)")
		}
		p, err := qos.NewPlanner(table)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		p.Telemetry = rec
		if havePT {
			// Classical verdicts carry a deadline-sized replica-exchange
			// budget the pool's PT backend honors (backend.Problem.PT).
			p.PT = &qos.PTCost{MicrosPerSpinSweep: backend.DefaultPTMicrosPerSpinSweep}
		}
		budgetPlanner = p
	}

	// The solver-health plane: one drift tracker and one burn tracker span
	// the whole fleet — backend names are already namespaced per shard, and
	// the burn tracker indexes by shard internally.
	var healthTracker *health.Tracker
	var burn *health.BurnTracker
	if *healthOn {
		healthTracker = health.NewTracker(health.Config{})
		burn = health.NewBurnTracker(*shardsN)
	}

	// The shard fleet: one scheduler pool per shard (the planner, with its own
	// internal lock, and the telemetry recorder are shared — traces carry the
	// shard index).
	var schedulers []*sched.Scheduler
	var shards []router.Shard
	for i := 0; i < *shardsN; i++ {
		prefix := ""
		if *shardsN > 1 {
			prefix = fmt.Sprintf("s%d/", i)
		}
		workers, fallback := buildWorkers(prefix)
		s, err := sched.New(sched.Config{
			Pool:             workers,
			Fallback:         fallback,
			DefaultDeadline:  *deadline,
			DisableBatch:     !*batch,
			Planner:          budgetPlanner,
			DefaultTargetBER: *targetBER,
			CostAware:        *costAware,
			Seed:             *seed + int64(i),
			ShardID:          i,
			Telemetry:        rec,
			Health:           healthTracker,
			Burn:             burn,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		schedulers = append(schedulers, s)
		shards = append(shards, s)
	}
	var disp fronthaul.Dispatcher = schedulers[0]
	statsFn := schedulers[0].Stats
	poolSamples := func() []metrics.Sample { return schedulers[0].Stats().Samples() }
	var rt *router.Router
	if *shardsN > 1 {
		r, err := router.New(router.Config{
			Shards:        shards,
			ShedThreshold: *shedThreshold,
			Seed:          *seed,
			Burn:          burn,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rt = r
		disp = r
		statsFn = r.Stats
		poolSamples = r.Samples
	}

	srv := fronthaul.NewPoolServer(disp)
	srv.PipelineDepth = *pipeDepth
	srv.Logf = log.Printf
	srv.Telemetry = rec
	// One sample set answers stats polls and /metrics scrapes alike: the
	// pool (per shard behind a router, with the router's shed counters and
	// miss EWMAs), the recorder, the health and burn trackers and the
	// planner's decisions. The nil planes of a deployment that runs without
	// them export nothing.
	srv.Stats = func() []metrics.Sample {
		var planned []metrics.Sample
		if budgetPlanner != nil {
			planned = budgetPlanner.Stats().Samples()
		}
		return metrics.Collect(poolSamples(), rec.Snapshot().Samples(), healthTracker.Samples(), burn.Samples(), planned)
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	if *telemetryAddr != "" {
		tl, err := net.Listen("tcp", *telemetryAddr)
		if err != nil {
			log.Fatal(err)
		}
		mux := telemetry.Mux(rec, srv.Stats)
		go func() {
			if err := http.Serve(tl, mux); err != nil {
				log.Printf("quamax-serve: telemetry server: %v", err)
			}
		}()
		log.Printf("quamax-serve: telemetry on http://%s/metrics (traces at /traces, pprof at /debug/pprof/)", tl.Addr())
	}
	log.Printf("quamax-serve: %s on %s (Na=%d, |J_F|=%g, Ta=%gµs, Tp=%gµs)",
		disp, l.Addr(), opts.Params.NumAnneals, opts.JF, opts.Params.AnnealTimeMicros, opts.Params.PauseTimeMicros)

	// Graceful shutdown: stop accepting, drain the pool, report stats.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	select {
	case sig := <-sigs:
		log.Printf("quamax-serve: %v — draining pool", sig)
		l.Close()
	case err := <-done:
		if err != nil {
			log.Printf("quamax-serve: %v", err)
		}
	}
	drained := make(chan struct{})
	go func() {
		for _, s := range schedulers {
			s.Close()
		}
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		log.Printf("quamax-serve: drain timed out")
	}
	if rt != nil {
		for i, st := range rt.ShardStats() {
			log.Printf("quamax-serve: shard %d stats (sheds=%d)\n%s", i, rt.ShedCount(i), st)
		}
	}
	log.Printf("quamax-serve: final stats\n%s", statsFn())
	if budgetPlanner != nil {
		log.Printf("quamax-serve: planner stats\n%s", budgetPlanner.Stats())
	}
	if *traceOut != "" {
		st := statsFn()
		if err := telemetry.BuildDump(rec, &st).WriteFile(*traceOut); err != nil {
			log.Printf("quamax-serve: writing trace dump: %v", err)
		} else {
			log.Printf("quamax-serve: wrote telemetry dump (%d traces) to %s", rec.TraceCount(), *traceOut)
		}
	}
}
