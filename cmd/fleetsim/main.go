// Command fleetsim is the fleet capacity planner for the QuAMax serving
// tier: it answers "how many QPUs should this data center lease?" with
// money, not intuition. For each traffic mix it replays a synthetic
// multi-user cellular trace (internal/trace.GenerateMultiUser — Zipf cell
// popularity, per-user coherence windows) through the real scheduler
// (internal/sched) over a sweep of fleet shapes, and prices every point
// with the backends' capability descriptors (internal/backend.Capabilities:
// $/device-second lease rates, cryostat power draw). The output is one grid
// row per (mix, QPU count) — deadline-miss rate, per-solve spend, fleet
// lease for the run, energy — and one cost-optimal verdict per mix: the
// cheapest fleet whose miss rate stays inside -miss-budget.
//
//	fleetsim -qpus 1,2,4 -mixes dense-urban,suburban -requests 384
//
// Each simulated QPU runs the full decode pipeline (reduction, compiled
// channel cache, embedding, anneal simulation) and is then held busy for
// -device-occupancy of wall time, the same device-pacing model as the
// BenchmarkShardedServe row: throughput is bounded by devices × occupancy,
// which is exactly the resource the sweep is sizing. A classical SA host
// sits beside every fleet as the dedicated fallback, and -cost-aware
// (default true) lets the scheduler divert planner-sized easy requests to
// it by $/solve, so the grid shows what economics-aware dispatch is worth
// at each fleet size.
//
// Built-in traffic mixes:
//
//   - dense-urban: compact hot-cell population, 4×4 decodes at 12 dB SNR
//     with a 1e-6 BER target — planner read budgets are deep, QPU reads
//     pay, and fleet size is the QoS lever.
//   - suburban: wider, colder cells, 4×4 decodes at 28 dB SNR with a 1e-3
//     target — classically easy, cost-aware dispatch drains QPU spend.
//
// Lease cost is charged for the whole run's wall time on every pool worker
// (a leased QPU costs money while idle — that is the entire capacity
// trade), while per-solve spend and energy come from the scheduler's
// per-backend PoolStats counters, the same numbers the fronthaul stats
// frame, `quamax -top` and the Prometheus exporter surface in production.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"quamax"
	"quamax/internal/anneal"
	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/chimera"
	"quamax/internal/core"
	"quamax/internal/linalg"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/qos"
	"quamax/internal/rng"
	"quamax/internal/sched"
	"quamax/internal/trace"
)

// mix is one traffic shape the planner prices fleets against.
type mix struct {
	name      string
	snrDB     float64
	targetBER float64
	trace     trace.MultiUserConfig
}

// builtinMixes returns the named traffic mixes selectable with -mixes.
func builtinMixes(requests int) map[string]mix {
	urban := trace.MultiUserConfig{
		Cells: 16, Users: 256, Requests: requests, ZipfS: 1.1,
		Antennas: 4, CellUsers: 4, WindowUses: 8,
		RiceanK: 3, Doppler: 0.05, ShadowStdDB: 2,
	}
	suburban := urban
	suburban.Cells, suburban.Users, suburban.ZipfS = 48, 960, 0.6
	return map[string]mix{
		"dense-urban": {name: "dense-urban", snrDB: 12, targetBER: 1e-6, trace: urban},
		"suburban":    {name: "suburban", snrDB: 28, targetBER: 1e-3, trace: suburban},
	}
}

// point is one measured grid row: a fleet shape priced under one mix.
type point struct {
	qpus          int
	missRate      float64
	fallbackShare float64
	spendMicroUSD float64 // per-backend solve spend, summed
	leaseMicroUSD float64 // wall time × lease rate over every pool worker
	energyMilliJ  float64
	wall          time.Duration
}

func main() {
	var (
		qpusFlag    = flag.String("qpus", "1,2,4", "comma-separated QPU counts to sweep")
		mixesFlag   = flag.String("mixes", "dense-urban,suburban", "comma-separated traffic mixes (dense-urban, suburban)")
		requests    = flag.Int("requests", 256, "uplink decodes per mix replay")
		concurrency = flag.Int("concurrency", 16, "in-flight decodes offered to the pool")
		occupancy   = flag.Duration("device-occupancy", 2*time.Millisecond, "simulated QPU busy time per decode")
		deadline    = flag.Duration("deadline", 50*time.Millisecond, "per-request decode deadline")
		missBudget  = flag.Float64("miss-budget", 0.02, "largest acceptable deadline-miss rate for the verdict")
		costAware   = flag.Bool("cost-aware", true, "enable $/solve-aware dispatch in the swept pools")
		seed        = flag.Int64("seed", 7, "trace and solver random seed")
	)
	flag.Parse()

	qpuCounts, err := parseCounts(*qpusFlag)
	if err != nil {
		log.Fatalf("fleetsim: -qpus: %v", err)
	}
	mixes := builtinMixes(*requests)
	var selected []mix
	for _, name := range strings.Split(*mixesFlag, ",") {
		m, ok := mixes[strings.TrimSpace(name)]
		if !ok {
			log.Fatalf("fleetsim: unknown mix %q (want dense-urban or suburban)", name)
		}
		selected = append(selected, m)
	}
	if len(selected) == 0 {
		log.Fatal("fleetsim: no traffic mixes selected")
	}

	for _, m := range selected {
		probs, err := buildLoad(m, *seed)
		if err != nil {
			log.Fatalf("fleetsim: mix %s: %v", m.name, err)
		}
		fmt.Printf("mix %s: %d requests, %.0f dB SNR, target BER %.0e, deadline %s\n",
			m.name, len(probs), m.snrDB, m.targetBER, *deadline)
		fmt.Printf("  %-5s %9s %9s %12s %12s %10s %8s\n",
			"qpus", "missrate", "fallback", "solve-spend", "fleet-lease", "energy", "wall")
		var best *point
		for _, n := range qpuCounts {
			pt, err := runPoint(m, probs, n, *concurrency, *occupancy, *deadline, *costAware, *seed)
			if err != nil {
				log.Fatalf("fleetsim: mix %s qpus=%d: %v", m.name, n, err)
			}
			fmt.Printf("  %-5d %8.2f%% %8.1f%% %12s %12s %10s %8s\n",
				pt.qpus, 100*pt.missRate, 100*pt.fallbackShare,
				usd(pt.spendMicroUSD), usd(pt.leaseMicroUSD),
				joule(pt.energyMilliJ), pt.wall.Round(time.Millisecond))
			if pt.missRate <= *missBudget && (best == nil || pt.leaseMicroUSD < best.leaseMicroUSD) {
				cp := pt
				best = &cp
			}
		}
		if best == nil {
			fmt.Printf("  no swept fleet meets the %.1f%% miss budget — add QPUs or relax the deadline\n",
				100**missBudget)
			os.Exit(1)
		}
		fmt.Printf("  cost-optimal fleet for %s: %d QPU(s) — %s lease, %.2f%% miss rate\n",
			m.name, best.qpus, usd(best.leaseMicroUSD), 100*best.missRate)
	}
}

// buildLoad materializes one mix's trace as ready-to-dispatch problems:
// every request carries its coherence window's channel fingerprint, so the
// compiled-channel cache behaves exactly as in serving.
func buildLoad(m mix, seed int64) ([]*backend.Problem, error) {
	mod := modulation.QPSK
	src := rng.New(seed)
	tr, err := trace.GenerateMultiUser(src, m.trace)
	if err != nil {
		return nil, err
	}
	tr.Dataset().NormalizeAveragePower()
	probs := make([]*backend.Problem, len(tr.Requests))
	windows := make(map[*linalg.Mat]*core.Window) // a user's window shares one H
	for i, r := range tr.Requests {
		bits := src.Bits(m.trace.CellUsers * mod.BitsPerSymbol())
		inst, err := mimo.FromParts(src, mimo.Config{
			Mod: mod, Nt: m.trace.CellUsers, Nr: m.trace.Antennas,
			Channel: channel.Fixed{H: r.H, Label: m.name}, SNRdB: m.snrDB,
		}, r.H, bits)
		if err != nil {
			return nil, err
		}
		win := windows[r.H]
		if win == nil {
			win = core.NewWindow(mod, r.H)
			windows[r.H] = win
		}
		probs[i] = &backend.Problem{
			Mod: inst.Mod, H: win.Channel(), Y: inst.Y,
			Window: win, TargetBER: m.targetBER,
		}
	}
	return probs, nil
}

// pacedQPU holds the simulated annealer device busy for a fixed occupancy
// window per decode, the same pacing model as BenchmarkShardedServe: fleet
// throughput is devices × occupancy, independent of host core count. Its
// capability descriptor extends the annealer's latency model by the pacing
// window, so the scheduler's deadline projection and $/solve pricing see
// the device the fleet actually leases.
type pacedQPU struct {
	*backend.Annealer
	occupancy time.Duration
	caps      *backend.Capabilities
}

func newPacedQPU(a *backend.Annealer, occupancy time.Duration) *pacedQPU {
	d := &pacedQPU{Annealer: a, occupancy: occupancy}
	caps := *a.Describe()
	base := caps.Latency
	caps.Latency = func(p *backend.Problem) float64 {
		return base(p) + float64(occupancy.Microseconds())
	}
	d.caps = &caps
	return d
}

func (d *pacedQPU) Describe() *backend.Capabilities { return d.caps }

func (d *pacedQPU) Solve(ctx context.Context, p *backend.Problem, src *rng.Source) (*backend.Result, error) {
	res, err := d.Annealer.Solve(ctx, p, src)
	if err != nil {
		return nil, err
	}
	select {
	case <-time.After(d.occupancy):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return res, nil
}

// runPoint replays one mix through a pool of n paced QPUs, sharing one
// decoder, plus a classical SA fallback and prices the run.
func runPoint(m mix, probs []*backend.Problem, n, concurrency int, occupancy, deadline time.Duration, costAware bool, seed int64) (point, error) {
	dec, err := quamax.NewDecoder(quamax.Options{
		Graph:        chimera.New(6),
		Params:       anneal.Params{AnnealTimeMicros: 1, NumAnneals: 10},
		ChannelCache: 512,
	})
	if err != nil {
		return point{}, err
	}
	var workers []backend.Backend
	for i := 0; i < n; i++ {
		workers = append(workers, newPacedQPU(backend.AnnealerFromDecoder(fmt.Sprintf("qpu%d", i), dec), occupancy))
	}
	sa := backend.NewClassicalSA("sa", 64, 8)
	planner, err := qos.NewPlanner(nil)
	if err != nil {
		return point{}, err
	}
	s, err := sched.New(sched.Config{
		Pool:         workers,
		Fallback:     sa,
		Planner:      planner,
		CostAware:    costAware,
		DisableBatch: true,
		Seed:         seed,
	})
	if err != nil {
		return point{}, err
	}
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	ctx := context.Background()
	start := time.Now()
	for _, p := range probs {
		wg.Add(1)
		sem <- struct{}{}
		go func(p *backend.Problem) {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := s.Dispatch(ctx, p, deadline); err != nil {
				log.Printf("fleetsim: dispatch: %v", err)
			}
		}(p)
	}
	wg.Wait()
	wall := time.Since(start)
	s.Close()

	st := s.Stats()
	pt := point{qpus: n, missRate: st.MissRate(), wall: wall}
	if st.Completed > 0 {
		pt.fallbackShare = float64(st.FallbackDispatches) / float64(st.Completed)
	}
	for _, be := range st.Backends {
		pt.spendMicroUSD += be.SpendMicroUSD
		pt.energyMilliJ += be.EnergyMilliJ
	}
	// The lease bill: every fleet device (the QPUs and the classical
	// fallback host) is paid for the run's whole wall time at its
	// descriptor's device-second rate, busy or idle.
	for _, w := range append(workers, backend.Backend(sa)) {
		pt.leaseMicroUSD += w.Describe().Cost.MicroUSDPerDeviceSecond * wall.Seconds()
	}
	return pt, nil
}

// parseCounts parses a comma-separated list of positive QPU counts.
func parseCounts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad QPU count %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty sweep")
	}
	return out, nil
}

// usd renders a micro-USD amount at a readable scale.
func usd(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("$%.2f", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fm$", v/1e3)
	}
	return fmt.Sprintf("%.1fµ$", v)
}

// joule renders a millijoule total at a readable scale.
func joule(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fkJ", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fJ", v/1e3)
	}
	return fmt.Sprintf("%.1fmJ", v)
}
