package core

import (
	"math"
	"testing"

	"quamax/internal/anneal"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/qubo"
	"quamax/internal/reduction"
	"quamax/internal/rng"
	"quamax/internal/softout"
)

// A run anneals read by read, each read keyed to its slot, and the tests here
// hold what that buys: an Outcome — solo or a shared-run member's — is a
// function of the run's requests and seed alone — not of the worker count, not
// of which co-member stops when — and a request that stops scored exactly the
// first reads of its uncut self. CI runs them under -race -count=10.

// runDecoder is a DW2Q decoder whose machine fans out over `workers`.
func runDecoder(t *testing.T, workers int) *Decoder {
	t.Helper()
	m := anneal.NewMachine()
	m.Workers = workers
	d, err := New(Options{Machine: m, AmortizeParallel: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// noiseRadius is the stop radius internal/qos sizes, σ²·(Nr + √Nr), written
// out because qos imports this package.
func noiseRadius(in *mimo.Instance) float64 {
	nr := float64(in.H.Rows)
	return in.NoiseVariance() * (nr + math.Sqrt(nr))
}

// mixedRun is a six-member N=16 run: QPSK 8×8 beside 16-QAM 4×4, hard, soft
// and ground-truth members. armed lists the members that carry their noise
// radius.
func mixedRun(t *testing.T, armed ...int) []Request {
	t.Helper()
	shapes := []struct {
		mod         modulation.Modulation
		nt          int
		soft, truth bool
	}{
		{modulation.QPSK, 8, false, true},
		{modulation.QPSK, 8, true, true},
		{modulation.QAM16, 4, false, false},
		{modulation.QPSK, 8, false, true},
		{modulation.QPSK, 8, true, false},
		{modulation.QAM16, 4, true, true},
	}
	reqs := make([]Request, len(shapes))
	for i, s := range shapes {
		in := compiledInstance(t, int64(8100+i), s.mod, s.nt, 16)
		reqs[i] = Request{Mod: in.Mod, H: in.H, Y: in.Y}
		if s.soft {
			reqs[i].Soft = &softout.Spec{NoiseVar: in.NoiseVariance()}
		}
		if s.truth {
			reqs[i].Truth = in
		}
		for _, a := range armed {
			if a == i {
				reqs[i].Radius = noiseRadius(in)
			}
		}
	}
	return reqs
}

func runBudget(reads int) Budget {
	return Budget{Params: anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: reads}}
}

// decodeAll decodes reqs as one shared run and then each alone — hard and
// soft as asked, and every hard one once more in reverse — on fixed seeds,
// returning the run's outcomes followed by the solo ones.
func decodeAll(t *testing.T, d *Decoder, reqs []Request, reads int) []*Outcome {
	t.Helper()
	outs, err := d.DecodeRun(reqs, runBudget(reads), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		out, err := d.Decode(req, runBudget(reads), rng.New(int64(50+i)))
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
		if req.Soft == nil {
			req.Reverse = true
			if out, err = d.Decode(req, runBudget(reads), rng.New(int64(70+i))); err != nil {
				t.Fatal(err)
			}
			outs = append(outs, out)
		}
	}
	return outs
}

func TestSharedRunIdenticalAtEveryWorkerCount(t *testing.T) {
	for _, armed := range [][]int{nil, {0, 1, 4}} {
		want := decodeAll(t, runDecoder(t, 1), mixedRun(t, armed...), 14)
		for _, workers := range []int{3, 8} {
			got := decodeAll(t, runDecoder(t, workers), mixedRun(t, armed...), 14)
			for i := range want {
				if !sameOutcome(got[i], want[i]) {
					t.Errorf("armed %v outcome %d: %d workers %+v, 1 worker %+v", armed, i, workers, got[i], want[i])
				}
			}
		}
	}
}

// A stopped request scored exactly the first reads of its uncut self, whether
// it shares a run (every member on one seed) or runs alone (request i on
// seed 60 + i).
func TestStoppedMemberScoredThePrefixOfItsUncutSelf(t *testing.T) {
	const budget = 14
	d := runDecoder(t, 8)
	armedSet := []int{0, 1, 3, 4}
	decode := map[string]func(reqs []Request, reads int) []*Outcome{
		"shared": func(reqs []Request, reads int) []*Outcome {
			outs, err := d.DecodeRun(reqs, runBudget(reads), rng.New(6))
			if err != nil {
				t.Fatal(err)
			}
			return outs
		},
		"solo": func(reqs []Request, reads int) []*Outcome {
			outs := make([]*Outcome, len(reqs))
			for i, req := range reqs {
				var err error
				if outs[i], err = d.Decode(req, runBudget(reads), rng.New(int64(60+i))); err != nil {
					t.Fatal(err)
				}
			}
			return outs
		},
	}
	for mode, decode := range decode {
		armed := decode(mixedRun(t, armedSet...), budget)
		stopped, softStopped := 0, 0
		for _, i := range armedSet {
			out := armed[i]
			req := mixedRun(t, armedSet...)[i]
			if out.Reads == budget {
				continue // never settled, or settled on the last read: nothing was cut
			}
			stopped++
			if out.Energy > req.Radius {
				t.Errorf("%s request %d stopped after %d reads at energy %v, outside its radius %v", mode, i, out.Reads, out.Energy, req.Radius)
			}
			if req.Soft != nil {
				softStopped++
				if out.Reads < softout.MinEnsemble {
					t.Errorf("%s soft request %d stopped after %d reads, under the ensemble floor %d", mode, i, out.Reads, softout.MinEnsemble)
				}
			}
			// The uncut run cut where the request stopped is a run with that
			// budget: same requests, no radius, same seed. The whole Outcome —
			// bits, energy, chain breaks, ranked distribution, LLRs — must match.
			prefix := decode(mixedRun(t), out.Reads)
			if !sameOutcome(out, prefix[i]) {
				t.Errorf("%s request %d stopped after %d reads: %+v, the uncut run's first %d reads score %+v", mode, i, out.Reads, out, out.Reads, prefix[i])
			}
			// … and it stopped at the FIRST read inside the radius: one read
			// earlier nothing was (the soft floor aside).
			if out.Reads > 1 && (req.Soft == nil || out.Reads > softout.MinEnsemble) {
				if before := decode(mixedRun(t), out.Reads-1); before[i].Energy <= req.Radius {
					t.Errorf("%s request %d read on to %d although read %d was already inside its radius", mode, i, out.Reads, out.Reads-1)
				}
			}
		}
		if stopped < 2 || softStopped < 1 {
			t.Fatalf("%s: %d of %d armed requests stopped early, %d of them soft: the runs no longer exercise the rule", mode, stopped, len(armedSet), softStopped)
		}
	}
}

func TestArmingAMemberDoesNotMoveItsCoMembers(t *testing.T) {
	d := runDecoder(t, 3)
	uncut, err := d.DecodeRun(mixedRun(t), runBudget(14), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	armedSet := []int{0, 4}
	armed, err := d.DecodeRun(mixedRun(t, armedSet...), runBudget(14), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	cut := false
	for i := range uncut {
		if i == 0 || i == 4 {
			cut = cut || armed[i].Reads < uncut[i].Reads
			continue
		}
		if !sameOutcome(armed[i], uncut[i]) {
			t.Errorf("un-armed member %d moved when members %v were armed: %+v, was %+v", i, armedSet, armed[i], uncut[i])
		}
	}
	if !cut {
		t.Fatal("no armed member stopped early: the run no longer exercises the rule")
	}
}

// combinedRunOracle is the shared run as it was simulated before it went
// slot-major, kept in test code only: every member's embedded program
// concatenated at index offsets into ONE physical program, annealed as one
// Metropolis chain by Machine.Run (a run of one slot), and only then
// unembedded member by member. Per member it returns how many reads decoded
// the transmitted bits exactly and the broken chains over all reads; and the
// auto-scale of the combined program beside the max over the members' own.
func combinedRunOracle(t *testing.T, d *Decoder, ins []*mimo.Instance, params anneal.Params, src *rng.Source) (exact, broken []int, scale, maxSlotScale float64) {
	t.Helper()
	opts := d.Options()
	_, packs, err := d.embeddingFor(ins[0].NumVariables())
	if err != nil {
		t.Fatal(err)
	}
	combined := qubo.NewSparse(0)
	offsets := make([]int, len(ins))
	for i, in := range ins {
		ep, err := packs[i].EmbedIsing(reduction.ReduceToIsing(in.Mod, in.H, in.Y), opts.JF, opts.ImprovedRange)
		if err != nil {
			t.Fatal(err)
		}
		offsets[i] = combined.N
		combined.N += ep.Phys.N
		combined.H = append(combined.H, ep.Phys.H...)
		for _, e := range ep.Phys.Edges {
			combined.Edges = append(combined.Edges, qubo.SparseEdge{I: e.I + offsets[i], J: e.J + offsets[i], W: e.W})
		}
		maxSlotScale = max(maxSlotScale, opts.Machine.Scale(ep.Phys, opts.ImprovedRange))
	}
	samples, err := opts.Machine.Run(combined, params, opts.ImprovedRange, src)
	if err != nil {
		t.Fatal(err)
	}
	exact, broken = make([]int, len(ins)), make([]int, len(ins))
	for _, s := range samples {
		for i, in := range ins {
			spins, br := packs[i].Unembed(s.Spins[offsets[i]:offsets[i]+packs[i].NumPhysical()], src)
			broken[i] += br
			if in.BitErrors(in.Mod.PostTranslate(qubo.BitsFromSpins(spins))) == 0 {
				exact[i]++
			}
		}
	}
	return exact, broken, opts.Machine.Scale(combined, opts.ImprovedRange), maxSlotScale
}

// Slot-major simulation draws from differently laid out streams than the
// combined program did, so the two cannot be compared bit for bit; they are
// the same Markov chain, so they are held to the same counts: over seeded
// runs, the reads that decode the transmitted bits exactly and the chains
// that break agree within four binomial deviations of their difference, at
// N = 16 (six members a run) and at N = 48 (the chip holds one). The
// auto-scale is not statistical: the max over the slots EQUALS the combined
// program's.
func TestSlotMajorRunMatchesCombinedProgramOracle(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("anneals 2 × 60 seeded runs")
	}
	d := runDecoder(t, 8)
	params := runBudget(12).Params
	for _, c := range []struct {
		name    string
		mod     modulation.Modulation
		nt      int
		snr     float64
		members int
		runs    int
	}{
		{"n16", modulation.QPSK, 8, 14, 6, 40},
		{"n48", modulation.BPSK, 48, 20, 1, 60},
	} {
		var exactSlot, exactOracle, brokenSlot, brokenOracle, reads, chains int
		for run := 0; run < c.runs; run++ {
			ins := make([]*mimo.Instance, c.members)
			reqs := make([]Request, c.members)
			for i := range ins {
				ins[i] = compiledInstance(t, int64(9000+100*run+i), c.mod, c.nt, c.snr)
				reqs[i] = truthReq(ins[i])
			}
			outs, err := d.DecodeRun(reqs, Budget{Params: params}, rng.New(int64(500+run)))
			if err != nil {
				t.Fatal(err)
			}
			for _, out := range outs {
				brokenSlot += out.BrokenChains
				for _, s := range out.Distribution.Solutions {
					if s.BitErrors == 0 {
						exactSlot += s.Count
					}
				}
			}
			exact, broken, scale, maxSlotScale := combinedRunOracle(t, d, ins, params, rng.New(int64(700+run)))
			if scale != maxSlotScale {
				t.Fatalf("%s run %d: combined program auto-scale %v, max over its slots %v", c.name, run, scale, maxSlotScale)
			}
			for i := range ins {
				exactOracle += exact[i]
				brokenOracle += broken[i]
			}
			reads += c.members * params.NumAnneals
			chains += c.members * params.NumAnneals * ins[0].NumVariables()
		}
		within := func(what string, a, b, n int) {
			p := float64(a+b) / float64(2*n)
			tol := 4 * math.Sqrt(2*float64(n)*p*(1-p))
			t.Logf("%s: %s slot-major %d, combined-program oracle %d of %d (tolerance %.1f)", c.name, what, a, b, n, tol)
			if math.Abs(float64(a-b)) > tol {
				t.Errorf("%s: %s slot-major %d, oracle %d of %d: apart by more than %.1f", c.name, what, a, b, n, tol)
			}
		}
		within("exact reads", exactSlot, exactOracle, reads)
		within("broken chains", brokenSlot, brokenOracle, chains)
		if exactSlot == 0 || exactSlot == reads {
			t.Errorf("%s: %d of %d reads exact: the instances no longer discriminate", c.name, exactSlot, reads)
		}
	}
}
