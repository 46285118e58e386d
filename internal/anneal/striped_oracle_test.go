package anneal

import (
	"math"
	"testing"

	"quamax/internal/channel"
	"quamax/internal/chimera"
	"quamax/internal/embedding"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/qubo"
	"quamax/internal/reduction"
	"quamax/internal/rng"
)

// stripedRunOracle is the device loop as it ran before reads were keyed per
// (slot, read), kept in test code only: reads striped over the machine's
// workers, worker w's reads on the w-th split of the run's source, each read
// drawing its ICE noise and its twin's seed from that worker stream in turn.
func stripedRunOracle(m *Machine, pp *PreparedProgram, h []float64, params Params, src *rng.Source) [][]int8 {
	workers := max(1, min(m.Workers, params.NumAnneals))
	betas := ScheduleFromParams(m, params).betas()
	scale, ice := pp.scale(h), m.ICE
	out := make([][]int8, params.NumAnneals)
	var rd deviceRead
	rd.bind(pp)
	k := &rd.k
	for w, ws := range src.SplitN(workers) {
		for a := w; a < params.NumAnneals; a += workers {
			for i, v := range h {
				k.h[i] = v / scale
				if ice.Enabled {
					k.h[i] += ws.Gauss(ice.HMean, ice.HStd)
				}
			}
			for e, p := range pp.adj.up {
				wt := pp.w[e] / scale
				if ice.Enabled {
					wt += ws.Gauss(ice.JMean, ice.JStd)
				}
				q := pp.adj.lo[e]
				k.w[p], k.w[q] = wt, wt
				k.flipW[p], k.flipW[q] = 4*wt, 4*wt
			}
			rd.s.state = ws.Uint64()
			rd.s.start(nil)
			for _, beta := range betas {
				rd.s.SetBeta(beta)
				rd.s.Sweep()
			}
			out[a] = append([]int8(nil), rd.s.spins...)
		}
	}
	return out
}

// Keyed per-read streams draw from differently laid out streams than the
// striped worker streams did, so the two cannot be compared bit for bit; they
// are the same Markov chain, so they are held to the same counts: over seeded
// runs of embedded MIMO programs, the reads that decode the transmitted bits
// exactly and the chains that break agree within four binomial deviations of
// their difference, at N = 16 (8×8 QPSK) and N = 48 (48×48 BPSK).
func TestKeyedReadsMatchStripedRunOracle(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("anneals 2 × 300 seeded runs")
	}
	m := NewMachine()
	params := Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 12}
	for _, c := range []struct {
		name string
		mod  modulation.Modulation
		nt   int
		snr  float64
		runs int
	}{
		{"n16", modulation.QPSK, 8, 14, 240},
		{"n48", modulation.BPSK, 48, 20, 60},
	} {
		emb, err := embedding.Embed(chimera.DW2Q(), c.nt*c.mod.BitsPerSymbol())
		if err != nil {
			t.Fatal(err)
		}
		var exactKeyed, exactOracle, brokenKeyed, brokenOracle, reads, chains int
		for run := 0; run < c.runs; run++ {
			in, err := mimo.Generate(rng.New(int64(9000+run)), mimo.Config{
				Mod: c.mod, Nt: c.nt, Nr: c.nt, Channel: channel.RandomPhase{}, SNRdB: c.snr,
			})
			if err != nil {
				t.Fatal(err)
			}
			ep, err := emb.EmbedIsing(reduction.ReduceToIsing(in.Mod, in.H, in.Y), 4, true)
			if err != nil {
				t.Fatal(err)
			}
			pp := m.PrepareProgram(ep.Phys, true)
			keyed, err := m.RunPrepared(pp, ep.Phys.H, params, rng.New(int64(500+run)))
			if err != nil {
				t.Fatal(err)
			}
			tie := rng.New(int64(900 + run))
			count := func(phys []int8, exact, broken *int) {
				spins, br := emb.Unembed(phys, tie)
				*broken += br
				if in.BitErrors(in.Mod.PostTranslate(qubo.BitsFromSpins(spins))) == 0 {
					*exact++
				}
			}
			for _, s := range keyed {
				count(s.Spins, &exactKeyed, &brokenKeyed)
			}
			for _, phys := range stripedRunOracle(m, pp, ep.Phys.H, params, rng.New(int64(700+run))) {
				count(phys, &exactOracle, &brokenOracle)
			}
			reads += params.NumAnneals
			chains += params.NumAnneals * emb.N
		}
		within := func(what string, a, b, n int) {
			p := float64(a+b) / float64(2*n)
			tol := 4 * math.Sqrt(2*float64(n)*p*(1-p))
			t.Logf("%s: %s keyed %d, striped oracle %d of %d (tolerance %.1f)", c.name, what, a, b, n, tol)
			if math.Abs(float64(a-b)) > tol {
				t.Errorf("%s: %s keyed %d, striped oracle %d of %d: apart by more than %.1f", c.name, what, a, b, n, tol)
			}
		}
		within("exact reads", exactKeyed, exactOracle, reads)
		within("broken chains", brokenKeyed, brokenOracle, chains)
		if exactKeyed == 0 || exactKeyed == reads {
			t.Errorf("%s: %d of %d reads exact: the instances no longer discriminate", c.name, exactKeyed, reads)
		}
	}
}
