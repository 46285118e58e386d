// Benchmark harness: BenchmarkExperiment/<id> for every registered paper
// table/figure (quick-scale presets; run cmd/quamax for full scale), plus
// component micro-benchmarks.
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark regenerates the table and reports its row count
// as a custom metric; run with -v to see the rendered tables.
package quamax_test

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"quamax"
	"quamax/internal/anneal"
	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/chimera"
	"quamax/internal/coding"
	"quamax/internal/core"
	"quamax/internal/detector"
	"quamax/internal/embedding"
	"quamax/internal/experiments"
	"quamax/internal/fronthaul"
	"quamax/internal/health"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/precoding"
	"quamax/internal/qos"
	"quamax/internal/qubo"
	"quamax/internal/reduction"
	"quamax/internal/rng"
	"quamax/internal/router"
	"quamax/internal/sched"
	"quamax/internal/softout"
	"quamax/internal/telemetry"
	"quamax/internal/trace"
)

// BenchmarkExperiment regenerates every registered experiment at its quick
// preset, one sub-benchmark per ID (BenchmarkExperiment/fig5), over one Env
// so embeddings and decoders are reused.
func BenchmarkExperiment(b *testing.B) {
	env := experiments.NewEnv()
	for _, x := range experiments.Registry {
		b.Run(x.ID, func(b *testing.B) {
			var rows int
			for i := 0; i < b.N; i++ {
				tab, err := x.Run(env, experiments.Quick)
				if err != nil {
					b.Fatal(err)
				}
				rows = len(tab.Rows)
				if rows == 0 {
					b.Fatal("experiment produced no rows")
				}
				if i == 0 {
					b.Log("\n" + tab.String())
				}
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// --- Component micro-benchmarks -------------------------------------------

func benchInstance(b *testing.B, mod modulation.Modulation, nt int, snr float64) *mimo.Instance {
	b.Helper()
	in, err := mimo.Generate(rng.New(1), mimo.Config{
		Mod: mod, Nt: nt, Nr: nt, Channel: channel.RandomPhase{}, SNRdB: snr,
	})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkReduceToIsing measures the closed-form ML→Ising reduction the
// paper calls "computationally insignificant" (48-user BPSK).
func BenchmarkReduceToIsing(b *testing.B) {
	in := benchInstance(b, modulation.BPSK, 48, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reduction.ReduceToIsing(in.Mod, in.H, in.Y)
	}
}

// BenchmarkReduceToQUBO measures the norm-expansion construction (oracle path).
func BenchmarkReduceToQUBO(b *testing.B) {
	in := benchInstance(b, modulation.QPSK, 18, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reduction.ReduceToQUBO(in.Mod, in.H, in.Y)
	}
}

// BenchmarkEmbed measures clique-embedding construction on the DW2Q model.
func BenchmarkEmbed(b *testing.B) {
	g := chimera.DW2Q()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := embedding.Embed(g, 48); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmbedIsing measures compiling a 48-spin problem onto chains.
func BenchmarkEmbedIsing(b *testing.B) {
	g := chimera.DW2Q()
	emb, err := embedding.Embed(g, 48)
	if err != nil {
		b.Fatal(err)
	}
	in := benchInstance(b, modulation.BPSK, 48, 20)
	logical := reduction.ReduceToIsing(in.Mod, in.H, in.Y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := emb.EmbedIsing(logical, 4, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnneal48BPSK measures one 100-anneal run of the paper's headline
// 48-user BPSK problem (624 physical qubits) on the two callers of the one
// Metropolis sweep body (anneal.MSScalar.Sweep): mode=scalar is the device
// simulator (Machine.Run — the QA-fidelity path: every read sweeps its own
// ICE-perturbed, auto-scaled weights under the calibrated ramp+pause
// schedule), mode=multispin is the classical replica runner
// (anneal.RunMultiSpin, one twin per replica over one shared compiled
// program; the sub-benchmark keeps the name of the packed multi-spin engine
// it used to run, the name its recorded history knows it by) on the
// device-normalized program under a tuned pure-ramp schedule. The
// comparison is iso-quality (TTS-style), not iso-schedule: the mid-anneal
// pause is a quantum-annealing physics aid that buys classical sweeps nothing
// (measured: +64 pause sweeps move gsrate by +0.03), so the classical row runs
// the schedule that reaches equal-or-better solution quality in the fewest
// sweeps (β 0.5→12 over 40 sweeps; the device simulator runs its calibrated
// 64+64). Each mode reports gsrate — the fraction of anneals landing within
// 2% of the best-known energy for this instance (the exact 624-qubit ground
// state is re-found too rarely by either mode to discriminate).
// The acceptance bar is the classical run's gsrate no worse than the device
// simulator's (less 0.02); there is no ns/op ratio to hold between the
// rows, because they run the same loop — what separates them is the
// sweep count and the per-read ICE reprogramming. The differential harness in
// internal/anneal holds that loop bit-exact against the packed block kept as
// a test oracle, and a device read bit-exact against the twin on its
// perturbed program.
func BenchmarkAnneal48BPSK(b *testing.B) {
	g := chimera.DW2Q()
	emb, err := embedding.Embed(g, 48)
	if err != nil {
		b.Fatal(err)
	}
	in := benchInstance(b, modulation.BPSK, 48, 20)
	logical := reduction.ReduceToIsing(in.Mod, in.H, in.Y)
	ep, err := emb.EmbedIsing(logical, 4, true)
	if err != nil {
		b.Fatal(err)
	}
	m := anneal.NewMachine()
	params := anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 100}

	// Both modes score energies on the device-normalized program (the machine
	// divides by the same auto-scale internally before sweeping), so energies
	// and the success threshold are directly comparable.
	norm := ep.Phys.Clone()
	scale := m.Scale(ep.Phys, true)
	for i := range norm.H {
		norm.H[i] /= scale
	}
	for i := range norm.Edges {
		norm.Edges[i].W /= scale
	}
	norm.Offset /= scale
	msSched := anneal.MSSchedule{BetaInitial: 0.5, BetaFinal: 12, Sweeps: 40}

	// Best-known energy from untimed warmup runs (a long classical ramp
	// plus one run of each benchmarked mode); gsrate counts anneals within
	// 2% of it.
	ref := math.Inf(1)
	warm, err := m.Run(ep.Phys, params, true, rng.New(11))
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range warm {
		if e := norm.Energy(s.Spins); e < ref {
			ref = e
		}
	}
	deep := anneal.MSSchedule{BetaInitial: 0.3, BetaFinal: 8, Sweeps: 128}
	for _, ws := range []anneal.MSSchedule{deep, msSched} {
		_, warmE, err := anneal.RunMultiSpin(norm, ws, 256, 1, rng.New(11))
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range warmE {
			if e < ref {
				ref = e
			}
		}
	}
	thr := ref + 0.02*math.Abs(ref)

	b.Run("mode=scalar", func(b *testing.B) {
		src := rng.New(2)
		hits, total := 0, 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			samples, err := m.Run(ep.Phys, params, true, src)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			for _, s := range samples {
				if norm.Energy(s.Spins) <= thr {
					hits++
				}
			}
			total += len(samples)
			b.StartTimer()
		}
		b.ReportMetric(float64(hits)/float64(total), "gsrate")
	})
	b.Run("mode=multispin", func(b *testing.B) {
		src := rng.New(2)
		hits, total := 0, 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, energies, err := anneal.RunMultiSpin(norm, msSched, params.NumAnneals, 1, src)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range energies {
				if e <= thr {
					hits++
				}
			}
			total += len(energies)
		}
		b.ReportMetric(float64(hits)/float64(total), "gsrate")
	})
}

// BenchmarkDecodeEndToEnd measures the full QuAMax pipeline per channel use
// (14-user QPSK at 20 dB, the paper's Fig. 13 fixed-user config).
func BenchmarkDecodeEndToEnd(b *testing.B) {
	dec, err := quamax.NewDecoder(quamax.Options{})
	if err != nil {
		b.Fatal(err)
	}
	in := benchInstance(b, modulation.QPSK, 14, 20)
	src := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(quamax.Request{Mod: in.Mod, H: in.H, Y: in.Y, Truth: in}, quamax.Budget{}, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSphereDecoder measures the classical ML baseline at the Table 1
// borderline size (21-user BPSK, 13 dB).
func BenchmarkSphereDecoder(b *testing.B) {
	in := benchInstance(b, modulation.BPSK, 21, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := detector.SphereDecode(in.Mod, in.H, in.Y, detector.SphereOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSphereProgram measures the compiled sphere search's two halves on
// the shapes admission certifies: the per-window factorization
// (detector.CompileSphere) and the per-symbol certificate at qos.CertifyNodes
// on a warm scratch (0 allocations), hard and — clipped where the default LLR
// clamp saturates at the instance's σ² — soft: cells_mixed_qos's 8×8 QPSK at
// 20 dB and the headline 48×48 BPSK at 20 dB.
func BenchmarkSphereProgram(b *testing.B) {
	for _, shape := range []struct {
		mod modulation.Modulation
		nt  int
	}{{modulation.QPSK, 8}, {modulation.BPSK, 48}} {
		in := benchInstance(b, shape.mod, shape.nt, 20)
		b.Run(fmt.Sprintf("nt=%d/compile", shape.nt), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				detector.CompileSphere(in.Mod, in.H)
			}
		})
		for _, mode := range []struct {
			name string
			clip float64
		}{{"certify", 0}, {"certify-soft", softout.Spec{NoiseVar: in.NoiseVariance()}.ClipRadius()}} {
			b.Run(fmt.Sprintf("nt=%d/%s", shape.nt, mode.name), func(b *testing.B) {
				p := detector.CompileSphere(in.Mod, in.H)
				var s detector.SphereScratch
				c := p.Certify(in.Y, qos.CertifyNodes, mode.clip, &s)
				b.ReportMetric(float64(c.Nodes), "nodes")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Certify(in.Y, qos.CertifyNodes, mode.clip, &s)
				}
			})
		}
	}
}

// BenchmarkZeroForcing measures the linear baseline at 48 users.
func BenchmarkZeroForcing(b *testing.B) {
	in := benchInstance(b, modulation.BPSK, 48, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := detector.ZeroForcing(in.Mod, in.H, in.Y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQR measures the complex Householder QR on a 48×48 channel.
func BenchmarkQR(b *testing.B) {
	h := channel.Rayleigh{}.Generate(rng.New(4), 48, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.QRDecompose(h)
	}
}

// BenchmarkExpectedBER measures the Eq. 9 evaluation over a large rank
// distribution.
func BenchmarkExpectedBER(b *testing.B) {
	src := rng.New(5)
	d := &metrics.Distribution{N: 48}
	for r := 0; r < 2000; r++ {
		cnt := 1 + src.Intn(50)
		d.Total += cnt
		d.Solutions = append(d.Solutions, metrics.RankedSolution{
			Energy: float64(r), Count: cnt, BitErrors: src.Intn(10),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := d.ExpectedBER(50); math.IsNaN(v) {
			b.Fatal("NaN")
		}
	}
}

// BenchmarkBruteForce20 measures the exhaustive Ising oracle at 20 spins.
func BenchmarkBruteForce20(b *testing.B) {
	src := rng.New(6)
	p := qubo.NewIsing(20)
	for i := 0; i < p.N; i++ {
		p.H[i] = src.Gauss(0, 1)
		for j := i + 1; j < p.N; j++ {
			p.SetJ(i, j, src.Gauss(0, 1))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qubo.BruteForceIsing(p)
	}
}

// benchLatencyModel measures a classical backend per solve on N-user BPSK
// (N logical spins) and holds its admission estimate to the measurement:
// est/meas is the capability descriptor's predicted latency over the measured
// one (1 is a perfect model).
func benchLatencyModel(b *testing.B, be backend.Backend) {
	for _, n := range []int{16, 36, 48} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			in := benchInstance(b, modulation.BPSK, n, 20)
			p := &backend.Problem{Mod: in.Mod, H: in.H, Y: in.Y}
			src := rng.New(7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := be.Solve(context.Background(), p, src); err != nil {
					b.Fatal(err)
				}
			}
			meas := float64(b.Elapsed().Microseconds()) / float64(b.N)
			b.ReportMetric(be.Describe().PredictMicros(p)/meas, "est/meas")
		})
	}
}

// BenchmarkClassicalSA measures the logical-space SA baseline at
// quamax-serve's default effort (128 sweeps × 100 restarts); the constants in
// internal/backend/classical.go were fitted to these rows.
func BenchmarkClassicalSA(b *testing.B) {
	benchLatencyModel(b, backend.NewClassicalSA("sa", 128, 100))
}

// BenchmarkParallelTempering is the same for the replica-exchange backend at
// its default effort (16 rungs × 4 ladders × 100 sweeps, one worker) — the
// estimate the QoS planner sizes PT budgets with; the constant in
// internal/backend/pt.go was fitted to these rows.
func BenchmarkParallelTempering(b *testing.B) {
	benchLatencyModel(b, backend.NewParallelTempering("pt", 0, 0, 0))
}

// BenchmarkScheduler measures QPU-pool throughput end to end (no fronthaul):
// 32 concurrent QPSK decode requests per iteration through pools of 1, 4 and
// 16 simulated annealers, with cross-request embedding-slot batching on and
// off. decodes/s is the figure future scaling PRs compare against.
func BenchmarkScheduler(b *testing.B) {
	const requests = 32
	probs := make([]*backend.Problem, requests)
	for i := range probs {
		in := benchInstance(b, modulation.QPSK, 2, 20)
		probs[i] = &backend.Problem{Mod: in.Mod, H: in.H, Y: in.Y}
	}
	for _, workers := range []int{1, 4, 16} {
		for _, batch := range []bool{true, false} {
			b.Run(fmt.Sprintf("pool=%d/batch=%t", workers, batch), func(b *testing.B) {
				pool := make([]backend.Backend, workers)
				for i := range pool {
					qpu, err := backend.NewAnnealer(fmt.Sprintf("qpu%d", i), quamax.Options{
						Graph: chimera.New(6),
						Params: anneal.Params{
							AnnealTimeMicros: 1, PauseTimeMicros: 1,
							PausePosition: 0.35, NumAnneals: 20,
						},
					})
					if err != nil {
						b.Fatal(err)
					}
					pool[i] = qpu
				}
				s, err := sched.New(sched.Config{Pool: pool, DisableBatch: !batch, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				ctx := context.Background()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for _, p := range probs {
						wg.Add(1)
						go func(p *backend.Problem) {
							defer wg.Done()
							if _, err := s.Dispatch(ctx, p, 0); err != nil {
								b.Error(err)
							}
						}(p)
					}
					wg.Wait()
				}
				b.StopTimer()
				b.ReportMetric(float64(requests*b.N)/b.Elapsed().Seconds(), "decodes/s")
			})
		}
	}
}

// shardedDeviceMicros is the simulated QPU occupancy per decode in
// BenchmarkShardedServe: the wall time the annealer chip is busy while the
// host CPU idles (a real QPU anneals off-host; the serving tier's job is to
// keep N such devices fed). Pacing the benchmark on device wall time rather
// than host CPU makes the shard-scaling measurement deterministic and
// host-core-count independent: decodes/s is bounded by devices × occupancy,
// which is exactly the resource sharding multiplies.
const shardedDeviceMicros = 5000

// qpuDevice wraps the real simulated annealer with device-occupancy pacing.
// Solve runs the full decode pipeline (reduction, compiled-channel cache,
// embedding, anneal simulation — so channel-cache behaviour is the real
// thing) and then holds the device busy for the balance of the occupancy
// window. The embedded Annealer keeps Describe (its capability descriptor)
// and ChannelCacheStats visible to the scheduler.
type qpuDevice struct {
	*backend.Annealer
}

func (d *qpuDevice) Solve(ctx context.Context, p *backend.Problem, src *rng.Source) (*backend.Result, error) {
	res, err := d.Annealer.Solve(ctx, p, src)
	if err != nil {
		return nil, err
	}
	select {
	case <-time.After(shardedDeviceMicros * time.Microsecond):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return res, nil
}

// BenchmarkShardedServe measures the serving value of the front-tier router:
// a fixed offered load — a synthetic multi-user cellular trace
// (trace.GenerateMultiUser: Zipf cell popularity, per-user coherence
// windows) — dispatched through 1, 4 and 8 single-QPU scheduler pools behind
// channel-affinity routing. Every request carries its window's channel
// fingerprint, so consistent hashing pins each coherence window to the shard
// that compiled it: the aggregate compiled-channel hit rate must hold within
// 5 points of the single-pool figure while decodes/s scales with the device
// count (the population is deliberately compact so windows repeat and the
// cache comparison has teeth). Deadlines are generous, so missrate is
// deterministically 0 in every mode — sharding must not invent misses.
// The acceptance bar is ≥2.5× decodes/s at 4 shards vs 1, no missrate
// regression, and the cache-hit bound; nothing gates it today (README,
// "Testing and CI gates").
func BenchmarkShardedServe(b *testing.B) {
	mod := modulation.BPSK
	cfg := trace.DefaultMultiUserConfig()
	cfg.Cells = 16
	// A compact population keeps users returning, so coherence windows are
	// revisited and the affinity-preserved cache hit rate is the signal, not
	// cold-miss noise.
	cfg.Users = 256
	cfg.Requests = 768
	cfg.WindowUses = 8
	cfg.Antennas, cfg.CellUsers = 4, 4
	src := rng.New(25)
	tr, err := trace.GenerateMultiUser(src, cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Dataset() shares the window matrices, so normalizing it normalizes the
	// per-request channels in place.
	tr.Dataset().NormalizeAveragePower()
	probs := make([]*backend.Problem, len(tr.Requests))
	windows := traceWindows(mod, tr.Requests)
	for i, r := range tr.Requests {
		bits := src.Bits(cfg.CellUsers * mod.BitsPerSymbol())
		inst, err := mimo.FromParts(src, mimo.Config{
			Mod: mod, Nt: cfg.CellUsers, Nr: cfg.Antennas,
			Channel: channel.Fixed{H: r.H, Label: "cell"}, SNRdB: 28,
		}, r.H, bits)
		if err != nil {
			b.Fatal(err)
		}
		probs[i] = &backend.Problem{Mod: inst.Mod, H: inst.H, Y: inst.Y, Window: windows[i]}
	}
	for _, n := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			var schedulers []*sched.Scheduler
			var shards []router.Shard
			for i := 0; i < n; i++ {
				qpu, err := backend.NewAnnealer(fmt.Sprintf("s%d/qpu0", i), quamax.Options{
					Graph:  chimera.New(6),
					Params: anneal.Params{AnnealTimeMicros: 1, NumAnneals: 10},
					// Roomy enough that no mode ever evicts: the hit-rate
					// comparison must measure affinity, not LRU pressure.
					ChannelCache: 512,
				})
				if err != nil {
					b.Fatal(err)
				}
				s, err := sched.New(sched.Config{
					Pool:         []backend.Backend{&qpuDevice{qpu}},
					DisableBatch: true,
					Seed:         int64(1 + i),
					ShardID:      i,
				})
				if err != nil {
					b.Fatal(err)
				}
				schedulers = append(schedulers, s)
				shards = append(shards, s)
			}
			defer func() {
				for _, s := range schedulers {
					s.Close()
				}
			}()
			rt, err := router.New(router.Config{Shards: shards, Seed: 11})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for _, p := range probs {
					wg.Add(1)
					go func(p *backend.Problem) {
						defer wg.Done()
						if _, err := rt.Dispatch(ctx, p, time.Minute); err != nil {
							b.Error(err)
						}
					}(p)
				}
				wg.Wait()
			}
			b.StopTimer()
			agg := rt.Stats()
			b.ReportMetric(float64(len(probs)*b.N)/b.Elapsed().Seconds(), "decodes/s")
			b.ReportMetric(agg.MissRate(), "missrate")
			b.ReportMetric(agg.ChannelCache.HitRate(), "cachehit")
		})
	}
}

// benchSolveMicros is benchTelemetryBackend's per-solve wall time — a
// deliberately pessimistic stand-in for the cheapest solve the serving
// stack performs (real anneal and classical-SA solves run from hundreds of
// microseconds to tens of milliseconds; the §5.5 replay's solve p50 is
// ~13ms). The telemetry tax is a fixed few microseconds per request, so
// this constant sets what the telemetry row's "within 5%" acceptance bar
// means; lowering it loosens the bar.
const benchSolveMicros = 200

// benchDispatchesPerOp is the telemetry row's inner batch per benchmark
// iteration (half per mode), so even a -benchtime 1x smoke measures
// hundreds of dispatches and the recorded dispatches/s self-averages
// goroutine-handoff jitter.
const benchDispatchesPerOp = 500

// benchTelemetryBackend busy-waits a fixed wall duration per solve. A real
// solver's run-to-run jitter — and CPU-frequency drift between two
// sub-benchmark runs — would swamp a 5% overhead gate; wall-clock pacing
// pins the denominator identically across the telemetry modes by
// construction, so the ratio measures only the tracing tax.
type benchTelemetryBackend struct{}

func (bb *benchTelemetryBackend) Describe() *backend.Capabilities {
	return &backend.Capabilities{
		Name:    "bench",
		Latency: func(p *backend.Problem) float64 { return benchSolveMicros },
	}
}
func (bb *benchTelemetryBackend) Solve(ctx context.Context, p *backend.Problem, src *rng.Source) (*backend.Result, error) {
	start := time.Now()
	for time.Since(start) < benchSolveMicros*time.Microsecond {
	}
	return &backend.Result{Bits: []byte{0}, Backend: "bench", Batched: 1}, nil
}

// BenchmarkSchedulerPlanner measures the serving value of the TTS-driven
// anneal-budget planner: deadline-miss rate under a mixed QPSK/16-QAM load
// at equal offered load, with the planner sizing each request's read budget
// versus the static Na = 100 configuration. 16 concurrent requests per
// iteration (3:1 4-user QPSK to 2-user 16-QAM, 25–30 dB) carry a 1e-3
// target BER and a 20 ms deadline through a four-annealer pool. The fitted
// TTS model prices QPSK at this SNR at a handful of reads and 16-QAM near
// the static budget, so with the planner most runs shrink ~15× and queues
// drain before the deadline; without it every run pays 100 reads. Batching
// is disabled so a run's (simulated) wall time tracks its read budget — the
// quantity the planner controls. The missrate metric (deadline misses per
// completed decode) is the acceptance figure; decodes/s is the throughput
// side of the same effect.
//
// The telemetry row prices the observability plane on the same serving
// path: one planned dispatch at a time through admit → plan → queue → solve
// → respond over a fixed-cost solve, in interleaved blocks with and without
// a telemetry.Recorder attached (off-dispatches/s and on-dispatches/s on
// one row). The on mode adds the trace span, the per-stage histogram
// observations and the deadline-slack bucket. The acceptance bar is on
// within 5% of off — the bar for leaving the plane enabled in production;
// nothing gates it today (README, "Testing and CI gates").
func BenchmarkSchedulerPlanner(b *testing.B) {
	const (
		requests  = 16
		targetBER = 1e-3
		deadline  = 20 * time.Millisecond
	)
	src := rng.New(42)
	probs := make([]*backend.Problem, requests)
	for i := range probs {
		mod, nt := modulation.QPSK, 4
		if i%4 == 3 {
			mod, nt = modulation.QAM16, 2
		}
		in, err := mimo.Generate(src, mimo.Config{
			Mod: mod, Nt: nt, Nr: nt, Channel: channel.RandomPhase{},
			SNRdB: 25 + 5*src.Float64(),
		})
		if err != nil {
			b.Fatal(err)
		}
		probs[i] = &backend.Problem{Mod: in.Mod, H: in.H, Y: in.Y, TargetBER: targetBER}
	}
	for _, withPlanner := range []bool{false, true} {
		b.Run(fmt.Sprintf("planner=%t", withPlanner), func(b *testing.B) {
			var planner *qos.Planner
			if withPlanner {
				p, err := qos.NewPlanner(nil)
				if err != nil {
					b.Fatal(err)
				}
				planner = p
			}
			pool := make([]backend.Backend, 4)
			for i := range pool {
				qpu, err := backend.NewAnnealer(fmt.Sprintf("qpu%d", i), quamax.Options{
					Graph: chimera.New(6),
					Params: anneal.Params{
						AnnealTimeMicros: 1, PauseTimeMicros: 1,
						PausePosition: 0.35, NumAnneals: 100,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				pool[i] = qpu
			}
			s, err := sched.New(sched.Config{
				Pool: pool, Planner: planner, DisableBatch: true, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for _, p := range probs {
					wg.Add(1)
					go func(p *backend.Problem) {
						defer wg.Done()
						if _, err := s.Dispatch(ctx, p, deadline); err != nil {
							b.Error(err)
						}
					}(p)
				}
				wg.Wait()
			}
			b.StopTimer()
			st := s.Stats()
			b.ReportMetric(st.MissRate(), "missrate")
			b.ReportMetric(float64(requests*b.N)/b.Elapsed().Seconds(), "decodes/s")
		})
	}

	b.Run("telemetry", func(b *testing.B) {
		mk := func(withTelemetry bool) (*sched.Scheduler, error) {
			planner, err := qos.NewPlanner(nil)
			if err != nil {
				return nil, err
			}
			var rec *telemetry.Recorder
			if withTelemetry {
				rec = telemetry.New(telemetry.Config{})
				planner.Telemetry = rec
			}
			return sched.New(sched.Config{
				Pool:      []backend.Backend{&benchTelemetryBackend{}},
				Planner:   planner,
				Seed:      7,
				Telemetry: rec,
			})
		}
		sOff, err := mk(false)
		if err != nil {
			b.Fatal(err)
		}
		defer sOff.Close()
		sOn, err := mk(true)
		if err != nil {
			b.Fatal(err)
		}
		defer sOn.Close()

		// One planned, deadline-bearing request dispatched over and over: the
		// planner sizes the read budget (StagePlan) and the respond path
		// classifies slack on every trip. Blocks of dispatches alternate
		// between the two schedulers (a paired measurement), so a host noise
		// episode lands on both modes instead of skewing whichever row
		// happened to be running — the off/on ratio stays honest even when
		// absolute rates wobble.
		const blockDispatches = 50
		const blocksPerOp = benchDispatchesPerOp / blockDispatches
		ctx := context.Background()
		p := probs[0]
		run := func(s *sched.Scheduler) time.Duration {
			start := time.Now()
			for k := 0; k < blockDispatches; k++ {
				if _, err := s.Dispatch(ctx, p, time.Minute); err != nil {
					b.Fatal(err)
				}
			}
			return time.Since(start)
		}
		var offTime, onTime time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for blk := 0; blk < blocksPerOp; blk++ {
				offTime += run(sOff)
				onTime += run(sOn)
			}
		}
		b.StopTimer()
		total := float64(b.N * blocksPerOp * blockDispatches)
		b.ReportMetric(total/offTime.Seconds(), "off-dispatches/s")
		b.ReportMetric(total/onTime.Seconds(), "on-dispatches/s")
	})
}

// BenchmarkCoherenceWindow measures the compile/execute split's serving
// value: decoding W-symbol coherence windows (one channel H, W received
// vectors) with the channel compiled ONCE per window versus recompiled per
// symbol. W = 1 prices the split's overhead, W = 14 is one LTE slot's OFDM
// symbols, W = 140 a 10 ms frame. The paper's headline 48-user BPSK problem
// with a single-read budget (Na = 1, no pause) isolates the per-symbol
// classical overhead the split removes — reduction Gram, coupler embedding,
// adjacency preparation — from the (unchanged) anneal time. Windows
// alternate between two channels against a one-entry channel cache, so every
// compiled window pays its full compile: the measured gain is pure
// amortization, not cache warmth. symbols/s is the acceptance metric
// (compiled ≥ 3× recompile at W = 14 at the PR 3 recording).
func BenchmarkCoherenceWindow(b *testing.B) {
	const nt = 48
	mod := modulation.BPSK
	params := anneal.Params{AnnealTimeMicros: 1, NumAnneals: 1}
	chans := make([]*linalg.Mat, 2)
	ys := make([][][]complex128, 2)
	const maxW = 140
	src := rng.New(9)
	for c := range chans {
		chans[c] = channel.RandomPhase{}.Generate(src, nt, nt)
		ys[c] = make([][]complex128, maxW)
		for w := range ys[c] {
			bits := src.Bits(nt * mod.BitsPerSymbol())
			ys[c][w] = channel.AddAWGN(src, linalg.MulVec(chans[c], mod.MapGrayVector(bits)), 0.05)
		}
	}
	for _, w := range []int{1, 14, 140} {
		for _, compiled := range []bool{false, true} {
			mode := "recompile"
			if compiled {
				mode = "compiled"
			}
			b.Run(fmt.Sprintf("W=%d/mode=%s", w, mode), func(b *testing.B) {
				dec, err := quamax.NewDecoder(quamax.Options{Params: params, ChannelCache: 1})
				if err != nil {
					b.Fatal(err)
				}
				src := rng.New(17)
				// Warm the (size-keyed, both-mode) embedding caches so the
				// one-time placement search stays out of the timing.
				if _, err := dec.Decode(quamax.Request{Mod: mod, H: chans[0], Y: ys[0][0]}, quamax.Budget{}, src); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c := i % 2
					if compiled {
						cc, err := dec.Compile(mod, chans[c])
						if err != nil {
							b.Fatal(err)
						}
						for s := 0; s < w; s++ {
							if _, err := dec.Decode(quamax.Request{CC: cc, Y: ys[c][s]}, quamax.Budget{}, src); err != nil {
								b.Fatal(err)
							}
						}
					} else {
						for s := 0; s < w; s++ {
							if _, err := dec.Decode(quamax.Request{Mod: mod, H: chans[c], Y: ys[c][s]}, quamax.Budget{}, src); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(w*b.N)/b.Elapsed().Seconds(), "symbols/s")
			})
		}
	}
}

// BenchmarkPrecodeWindow measures the downlink compile/execute split's
// serving value: vector-perturbation precoding W-symbol-vector coherence
// windows (one downlink channel H, W user-data vectors) with the VP program
// compiled ONCE per window versus recompiled per vector. The compiled path
// pays the channel inversion, coupling compile, embedding and adjacency
// preparation once; the recompile path pays all of it per vector. 24-user
// QPSK with the 1-bit alphabet reduces to the same 48-spin clique as the
// uplink coherence benchmark, and the single-read budget (Na = 1, no pause)
// isolates the amortized classical overhead from the (unchanged) anneal
// time. Windows alternate between two channels against one-entry program and
// channel caches, so every compiled window pays its full compile. Both modes
// run identical symbol sequences on identically-seeded random streams, and
// the paths are proven bit-identical, so the reported mean gamma (transmit
// power) is equal by construction — the "equal perturbation quality" half of
// the acceptance bar, beside the ≥2× precodes/s ratio of the PR 4 recording.
func BenchmarkPrecodeWindow(b *testing.B) {
	const (
		users = 24
		bits  = 1
		maxW  = 140
	)
	mod := modulation.QPSK
	params := anneal.Params{AnnealTimeMicros: 1, NumAnneals: 1}
	src := rng.New(31)
	chans := make([]*linalg.Mat, 2)
	svecs := make([][][]complex128, 2)
	for c := range chans {
		chans[c] = channel.RandomPhase{}.Generate(src, users, users)
		svecs[c] = make([][]complex128, maxW)
		for w := range svecs[c] {
			svecs[c][w] = mod.MapGrayVector(src.Bits(users * mod.BitsPerSymbol()))
		}
	}
	for _, w := range []int{1, 14, 140} {
		for _, compiled := range []bool{false, true} {
			mode := "recompile"
			if compiled {
				mode = "compiled"
			}
			b.Run(fmt.Sprintf("W=%d/mode=%s", w, mode), func(b *testing.B) {
				dec, err := quamax.NewDecoder(quamax.Options{Params: params, ChannelCache: 1})
				if err != nil {
					b.Fatal(err)
				}
				prec, err := precoding.NewPrecoder(dec, bits)
				if err != nil {
					b.Fatal(err)
				}
				src := rng.New(37)
				// Warm the (size-keyed, both-mode) embedding caches so the
				// one-time placement search stays out of the timing.
				if _, err := prec.PrecodeRecompile(mod, chans[0], svecs[0][0], src); err != nil {
					b.Fatal(err)
				}
				var gammaSum float64
				var precodes int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c := i % 2
					if compiled {
						prog, err := prec.Compile(mod, chans[c])
						if err != nil {
							b.Fatal(err)
						}
						for s := 0; s < w; s++ {
							res, err := prec.Precode(prog, svecs[c][s], src)
							if err != nil {
								b.Fatal(err)
							}
							gammaSum += res.Gamma
							precodes++
						}
					} else {
						for s := 0; s < w; s++ {
							res, err := prec.PrecodeRecompile(mod, chans[c], svecs[c][s], src)
							if err != nil {
								b.Fatal(err)
							}
							gammaSum += res.Gamma
							precodes++
						}
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(precodes)/b.Elapsed().Seconds(), "precodes/s")
				b.ReportMetric(gammaSum/float64(precodes), "gamma")
			})
		}
	}
}

// BenchmarkSoftDecode prices the soft-output path against the hard decode
// it extends, at an EQUAL anneal budget (the paper's Fig. 13 fixed-user
// config: 14-user QPSK, Na = 100). The two modes run identical anneals on
// identically-seeded streams; the soft mode additionally retains the read
// ensemble and extracts per-bit LLRs (internal/softout), which is pure
// classical post-processing — one Gray translation and one candidate-list
// insert per read, reusing the energies the hard path already computed. The
// acceptance bar is soft overhead ≤ 1.5×: soft decodes/s must stay within
// 1.5× of hard.
func BenchmarkSoftDecode(b *testing.B) {
	in := benchInstance(b, modulation.QPSK, 14, 20)
	spec := softout.Spec{NoiseVar: in.NoiseVariance()}
	for _, mode := range []string{"hard", "soft"} {
		b.Run("mode="+mode, func(b *testing.B) {
			dec, err := quamax.NewDecoder(quamax.Options{})
			if err != nil {
				b.Fatal(err)
			}
			src := rng.New(3)
			// Warm the embedding cache so placement search stays untimed.
			if _, err := dec.Decode(quamax.Request{Mod: in.Mod, H: in.H, Y: in.Y}, quamax.Budget{}, src); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "soft" {
					if _, err := dec.Decode(quamax.Request{Mod: in.Mod, H: in.H, Y: in.Y, Soft: &spec}, quamax.Budget{}, src); err != nil {
						b.Fatal(err)
					}
				} else {
					if _, err := dec.Decode(quamax.Request{Mod: in.Mod, H: in.H, Y: in.Y}, quamax.Budget{}, src); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decodes/s")
		})
	}
}

// BenchmarkSoftViterbi measures the soft-decision FEC decoder at a
// 1,500-byte frame, the soft counterpart of BenchmarkViterbi.
func BenchmarkSoftViterbi(b *testing.B) {
	c := coding.NewWiFiCode()
	src := rng.New(8)
	data := src.Bits(12000)
	coded := c.Encode(data)
	llrs := make([]float64, len(coded))
	for i, bit := range coded {
		mag := 0.5 + 7*src.Float64()
		if bit == 1 {
			llrs[i] = mag
		} else {
			llrs[i] = -mag
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeSoft(llrs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViterbi measures the FEC decoder at a 1,500-byte frame.
func BenchmarkViterbi(b *testing.B) {
	c := coding.NewWiFiCode()
	src := rng.New(8)
	data := src.Bits(12000)
	coded := c.Encode(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(coded); err != nil {
			b.Fatal(err)
		}
	}
}

// costBenchDeviceMicros paces the cost benchmark's simulated QPU exactly as
// BenchmarkShardedServe paces its devices: the annealer chip stays busy for
// this long per decode, so the spend comparison prices device occupancy —
// the thing the QPU lease actually bills — rather than host CPU time.
const costBenchDeviceMicros = shardedDeviceMicros

// BenchmarkCostAwareDispatch prices the fleet-economics dispatch policy: one
// fixed multi-user offered load (QPSK 4×4 at 28 dB with an easy 1e-3 BER
// target — the planner sizes shallow read budgets, so QPU reads buy no extra
// QoS) is replayed through the same pool twice, once with latency-only
// dispatch (mode=latency) and once with Config.CostAware (mode=cost). Both
// modes run a paced simulated QPU with a classical-SA fallback beside it and
// report per-decode spend from the schedulers' capability-descriptor
// counters, the deadline-miss rate, and the uncoded BER against the
// transmitted bits. The acceptance bar is cost-aware spend at most 75% of
// latency-only at an equal miss rate and no BER giveback — cheaper must not
// mean worse; nothing gates it today (README, "Testing and CI gates").
func BenchmarkCostAwareDispatch(b *testing.B) {
	mod := modulation.QPSK
	cfg := trace.DefaultMultiUserConfig()
	cfg.Cells = 16
	cfg.Users = 256
	cfg.Requests = 256
	cfg.WindowUses = 8
	cfg.Antennas, cfg.CellUsers = 4, 4
	src := rng.New(31)
	tr, err := trace.GenerateMultiUser(src, cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr.Dataset().NormalizeAveragePower()
	type job struct {
		p    *backend.Problem
		bits []byte
	}
	jobs := make([]job, len(tr.Requests))
	windows := traceWindows(mod, tr.Requests)
	for i, r := range tr.Requests {
		bits := src.Bits(cfg.CellUsers * mod.BitsPerSymbol())
		inst, err := mimo.FromParts(src, mimo.Config{
			Mod: mod, Nt: cfg.CellUsers, Nr: cfg.Antennas,
			Channel: channel.Fixed{H: r.H, Label: "cell"}, SNRdB: 28,
		}, r.H, bits)
		if err != nil {
			b.Fatal(err)
		}
		jobs[i] = job{
			p: &backend.Problem{
				Mod: inst.Mod, H: inst.H, Y: inst.Y,
				Window: windows[i], TargetBER: 1e-3,
			},
			bits: bits,
		}
	}
	for _, costAware := range []bool{false, true} {
		name := "mode=latency"
		if costAware {
			name = "mode=cost"
		}
		b.Run(name, func(b *testing.B) {
			qpu, err := backend.NewAnnealer("qpu0", quamax.Options{
				Graph:        chimera.New(6),
				Params:       anneal.Params{AnnealTimeMicros: 1, NumAnneals: 10},
				ChannelCache: 512,
			})
			if err != nil {
				b.Fatal(err)
			}
			planner, err := qos.NewPlanner(nil)
			if err != nil {
				b.Fatal(err)
			}
			s, err := sched.New(sched.Config{
				Pool:         []backend.Backend{&qpuDevice{qpu}},
				Fallback:     backend.NewClassicalSA("sa", 64, 8),
				Planner:      planner,
				CostAware:    costAware,
				DisableBatch: true,
				Seed:         3,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ctx := context.Background()
			var mu sync.Mutex
			var bitErrs, bitTotal uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				sem := make(chan struct{}, 16)
				for _, j := range jobs {
					wg.Add(1)
					sem <- struct{}{}
					go func(j job) {
						defer wg.Done()
						defer func() { <-sem }()
						res, err := s.Dispatch(ctx, j.p, time.Minute)
						if err != nil {
							b.Error(err)
							return
						}
						var errs uint64
						for k := range j.bits {
							if k < len(res.Bits) && res.Bits[k] != j.bits[k] {
								errs++
							}
						}
						mu.Lock()
						bitErrs += errs
						bitTotal += uint64(len(j.bits))
						mu.Unlock()
					}(j)
				}
				wg.Wait()
			}
			b.StopTimer()
			st := s.Stats()
			var spend float64
			for _, be := range st.Backends {
				spend += be.SpendMicroUSD
			}
			decodes := float64(len(jobs) * b.N)
			b.ReportMetric(spend/decodes, "µUSD/decode")
			b.ReportMetric(st.MissRate(), "missrate")
			b.ReportMetric(float64(bitErrs)/float64(bitTotal), "ber")
		})
	}
}

// benchHealthBackend busy-waits a fixed wall duration per solve — the same
// pacing argument as benchTelemetryBackend: run-to-run solver jitter would
// swamp a 5% overhead gate, so the denominator is pinned by construction —
// and reports a stable anneal-quality signature (deep −50 energies at 2%
// chain breaks per 100 reads) for the health tracker's reference window.
// Canary probes are recognizable as the plane's fixed BPSK instance (bench
// traffic is QPSK) and answered at the ground anchor, so an unarmed backend
// always passes re-admission.
type benchHealthBackend struct{ name string }

func (bb *benchHealthBackend) Describe() *backend.Capabilities {
	return &backend.Capabilities{
		Name:    bb.name,
		Latency: func(*backend.Problem) float64 { return benchSolveMicros },
	}
}

func (bb *benchHealthBackend) Solve(ctx context.Context, p *backend.Problem, src *rng.Source) (*backend.Result, error) {
	start := time.Now()
	for time.Since(start) < benchSolveMicros*time.Microsecond {
	}
	if p.Mod == modulation.BPSK { // canary probe
		return &backend.Result{Bits: []byte{0}, Backend: bb.name, Batched: 1, Energy: 0, Reads: 100}, nil
	}
	return &backend.Result{
		Bits: []byte{0}, Backend: bb.name, Batched: 1,
		Energy: -50, Reads: 100, BrokenChains: 2,
	}, nil
}

// BenchmarkHealthGatedServe prices the solver-health plane under the fault it
// exists for: a five-member pool serves a fixed deadline-bearing load while
// one member is degraded by an armed backend.Degrader — its solves stall just
// past the deadline and its anneal quality drifts (energy lift + chain-break
// storm). The same injected degradation is replayed twice: health=off (the
// scheduler keeps feeding the sick member, every solve it claims misses its
// deadline) and health=on (the drift detector quarantines it off the
// baseline it learned during the unarmed warmup, traffic reroutes, and armed
// canary probes keep it out). Both modes report decodes/s and the
// deadline-miss rate over the armed region only. The acceptance bar is
// health-on throughput within 5% of health-off — quarantining a member may
// only cost its capacity share, not stall the pool — at a strictly lower
// health-on missrate: the plane must convert detection into fewer
// client-visible deadline misses, or it is overhead. Nothing gates it today
// (README, "Testing and CI gates").
func BenchmarkHealthGatedServe(b *testing.B) {
	const (
		healthyMembers = 4
		concurrency    = 10
		warmup         = 200
		deadline       = 2 * time.Millisecond
		// sickStall pushes the sick member's solves just past the deadline:
		// far enough that every solve it claims misses, close enough that the
		// slow worker still pulls a measurable share of the FIFO queue in the
		// health=off mode.
		sickStall = 2300 * time.Microsecond
	)
	src := rng.New(31)
	in, err := mimo.Generate(src, mimo.Config{
		Mod: modulation.QPSK, Nt: 4, Nr: 4,
		Channel: channel.RandomPhase{}, SNRdB: 28,
	})
	if err != nil {
		b.Fatal(err)
	}
	prob := &backend.Problem{Mod: in.Mod, H: in.H, Y: in.Y}

	for _, mode := range []string{"off", "on"} {
		b.Run("health="+mode, func(b *testing.B) {
			sick := backend.NewDegrader(&benchHealthBackend{name: "sick"}, backend.DegraderFaults{
				ExtraLatency:   sickStall,
				ChainBreakRate: 0.5, // 2% → ~52% broken chains per read
				EnergyDrift:    0.5, // −50 → −25 best energy; canary 0 → +0.5
			})
			pool := []backend.Backend{sick}
			for i := 0; i < healthyMembers; i++ {
				pool = append(pool, &benchHealthBackend{name: fmt.Sprintf("ok%d", i)})
			}
			cfg := sched.Config{Pool: pool, DisableBatch: true, Seed: 1}
			if mode == "on" {
				cfg.Health = health.NewTracker(health.Config{})
				cfg.Burn = health.NewBurnTracker(1)
			}
			s, err := sched.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ctx := context.Background()
			serve := func(n int) {
				sem := make(chan struct{}, concurrency)
				var wg sync.WaitGroup
				for j := 0; j < n; j++ {
					sem <- struct{}{}
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer func() { <-sem }()
						if _, err := s.Dispatch(ctx, prob, deadline); err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
			}
			// Unarmed warmup: the tracker learns the healthy signature before
			// the fault lands, exactly as a production pool would have.
			serve(warmup)
			sick.SetDegraded(true)
			pre := s.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(benchDispatchesPerOp)
			}
			b.StopTimer()
			st := s.Stats()
			b.ReportMetric(float64(benchDispatchesPerOp*b.N)/b.Elapsed().Seconds(), "decodes/s")
			completed := st.Completed - pre.Completed
			misses := st.DeadlineMisses - pre.DeadlineMisses
			b.ReportMetric(float64(misses)/float64(completed), "missrate")
		})
	}
}

// The four benchmarks below are the orchestration path's layer rows: what a
// request costs between the socket and the backend, with no solver behind it.

// echoDispatcher answers every problem at once with zero bits of the right
// length: the floor under a fronthaul round trip.
type echoDispatcher struct{}

func (echoDispatcher) Dispatch(_ context.Context, p *backend.Problem, _ time.Duration) (*backend.Result, error) {
	return &backend.Result{Bits: make([]byte, p.LogicalSpins()), Backend: "echo", Batched: 1}, nil
}

// BenchmarkFronthaulRoundTrip measures one keyed (by-handle) 8×8 QPSK decode
// from fronthaul.Client over loopback TCP to a server with nothing behind it:
// codec, socket, demux and the server's writer. inflight=1 is the
// request/response latency; inflight=16 is the pipelined rate, where
// responses finishing together share a flush. allocs/op covers both ends.
func BenchmarkFronthaulRoundTrip(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- fronthaul.NewPoolServer(echoDispatcher{}).Serve(ln) }()
	c, err := fronthaul.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		c.Close()
		ln.Close()
		if err := <-served; err != nil {
			b.Error(err)
		}
	}()
	in := benchInstance(b, modulation.QPSK, 8, 20)
	rc, err := c.RegisterChannel(in.Mod, in.H)
	if err != nil {
		b.Fatal(err)
	}
	for _, inflight := range []int{1, 16} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			b.ReportAllocs()
			calls := make([]*fronthaul.DecodeCall, 0, inflight)
			b.ResetTimer()
			for done := 0; done < b.N; done += len(calls) {
				calls = calls[:0]
				for i := 0; i < inflight && done+i < b.N; i++ {
					dc, err := c.SubmitDecodeWithChannel(rc, in.Y, 0, 0)
					if err != nil {
						b.Fatal(err)
					}
					calls = append(calls, dc)
				}
				for _, dc := range calls {
					if _, err := dc.Await(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkInverse measures linalg.Inverse on the Gram matrices the linear
// detectors, the SNR estimate and the VP compile invert: the serving shape
// (8) and the paper's headline size (48).
func BenchmarkInverse(b *testing.B) {
	for _, n := range []int{8, 48} {
		g := linalg.Gram(channel.Rayleigh{}.Generate(rng.New(4), n, n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := linalg.Inverse(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlan measures one planner verdict over the built-in table on the
// cells_mixed_qos question: 8-user QPSK, 1e-3 target, 50 ms deadline, SNR
// cycling through the workload's four classes.
func BenchmarkPlan(b *testing.B) {
	planner, err := qos.NewPlanner(nil)
	if err != nil {
		b.Fatal(err)
	}
	snrs := []float64{15, 20, 25, 30}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planner.Plan(qos.Request{
			Mod: modulation.QPSK, Nt: 8, SNRdB: snrs[i%len(snrs)], TargetBER: 1e-3, DeadlineMicros: 50_000,
		})
	}
}

// BenchmarkEstimateSNR measures the planner's SNR estimate three ways: the
// one-shot form a self-contained request pays (factorization included), the
// per-symbol half a registered window's symbols pay once the scheduler holds
// the channel's estimator, and that half with admission's certificate search
// (qos.CertifyNodes) — what a hard or precode request pays before the planner.
func BenchmarkEstimateSNR(b *testing.B) {
	for _, shape := range []struct {
		mod modulation.Modulation
		nt  int
	}{{modulation.QPSK, 8}, {modulation.BPSK, 48}} {
		in := benchInstance(b, shape.mod, shape.nt, 20)
		b.Run(fmt.Sprintf("nt=%d/mode=one-shot", shape.nt), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := qos.EstimateSNRdB(in.Mod, in.H, in.Y); !ok {
					b.Fatal("estimate failed")
				}
			}
		})
		for _, mode := range []struct {
			name  string
			nodes int
		}{{"per-channel", 0}, {"per-channel+certify", qos.CertifyNodes}} {
			b.Run(fmt.Sprintf("nt=%d/mode=%s", shape.nt, mode.name), func(b *testing.B) {
				est := detector.CompileSphere(in.Mod, in.H)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !qos.EstimateInto(est, in.Y, mode.nodes, nil, nil, nil).OK {
						b.Fatal("estimate failed")
					}
				}
			})
		}
	}
}

// traceWindows mints one window per channel of a multi-user trace: the
// requests of one coherence window share their *linalg.Mat.
func traceWindows(mod modulation.Modulation, reqs []trace.Request) []*core.Window {
	byH := make(map[*linalg.Mat]*core.Window)
	out := make([]*core.Window, len(reqs))
	for i, r := range reqs {
		if byH[r.H] == nil {
			byH[r.H] = core.NewWindow(mod, r.H)
		}
		out[i] = byH[r.H]
	}
	return out
}
