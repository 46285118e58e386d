package main

import (
	"context"
	"fmt"
	"time"

	"quamax/internal/anneal"
	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/chimera"
	"quamax/internal/core"
	"quamax/internal/detector"
	"quamax/internal/embedding"
	"quamax/internal/fronthaul"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/modulation"
	"quamax/internal/precoding"
	"quamax/internal/qos"
	"quamax/internal/qubo"
	"quamax/internal/reduction"
	"quamax/internal/rng"
	"quamax/internal/sched"
	"quamax/internal/softout"
)

const (
	// ladderSamples is how many sampled requests a ladder row replays at
	// most; rowBudget (scaled from the run length) cuts slow rows short.
	ladderSamples = 200
	// ladderMinSamples is the fewest calls a row makes whatever its budget.
	ladderMinSamples = 3
)

// ladder times direct calls into each layer's exported functions, one caller
// at a time, over requests sampled from the workload's inputs. Rows are
// median microseconds per call unless their name says otherwise.
type ladder struct {
	w      *workload
	in     *inputs
	reads  int
	budget time.Duration
	src    *rng.Source
	rows   map[string]float64
}

// timed calls fn(i) for i = 0, 1, … until ladderSamples calls or the row
// budget is spent, and returns the median call time in µs.
func (l *ladder) timed(fn func(i int) error) (float64, error) {
	var us []float64
	start := time.Now()
	for i := 0; i < ladderSamples; i++ {
		if i >= ladderMinSamples && time.Since(start) > l.budget {
			break
		}
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return metrics.Median(us), nil
}

// row runs one timed row and stores it under name.
func (l *ladder) row(name string, fn func(i int) error) error {
	v, err := l.timed(fn)
	if err != nil {
		return fmt.Errorf("ladder row %s: %w", name, err)
	}
	l.rows[name] = v
	return nil
}

// decodes returns the sampled decode requests (precodes carry no received
// vector) and precodes the rest; a workload without precode users gets its
// decode inputs' symbol vectors rebuilt as precode inputs.
func (l *ladder) samples() (decodes, precodes []*request) {
	for i := range l.in.reqs {
		r := &l.in.reqs[i]
		if r.kind == kindPrecode {
			precodes = append(precodes, r)
		} else {
			decodes = append(decodes, r)
		}
		if len(decodes) >= ladderSamples && len(precodes) >= ladderSamples {
			break
		}
	}
	if len(precodes) == 0 {
		for _, r := range decodes {
			precodes = append(precodes, &request{h: r.h, y: l.w.mod.MapGrayVector(r.bits)})
		}
	}
	return decodes, precodes
}

// runLadder fills every direct-call row. reads is the read count the anneal
// and core rows run at (the workload's configured or mean planned budget).
func runLadder(w *workload, in *inputs, reads int, budget time.Duration) (map[string]float64, error) {
	l := &ladder{w: w, in: in, reads: max(reads, 1), budget: budget, src: rng.New(solverSeed), rows: make(map[string]float64)}
	decodes, precodes := l.samples()
	for _, step := range []func() error{
		l.fronthaulRows,
		func() error { return l.orchestrationRows(decodes) },
		func() error { return l.coreRows(decodes) },
		func() error { return l.stageRows(decodes) },
		func() error { return l.precodeRows(precodes) },
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	r := l.rows
	stages := r["reduction.compile_us"] + r["reduction.biases_us"] + r["embedding.embed_ising_us"] +
		r["anneal.prepare_us"] + float64(l.reads)*(r["anneal.run_us_per_read"]+r["embedding.unembed_us_per_read"])
	r["ladder.coverage"] = stages / r["core.decode_recompile_us"]
	return r, nil
}

// fronthaulRows measures client→server→stub-dispatcher round trips with one
// request in flight, over fixed frame shapes: the codec, the socket and the
// demux, with nothing behind them.
func (l *ladder) fronthaulRows() error {
	st, err := newStubStack()
	if err != nil {
		return err
	}
	c, err := fronthaul.Dial(st.addr())
	if err != nil {
		return err
	}
	defer func() {
		_ = c.Close() // a deliberate close reports nothing of use
		if err := st.close(); err != nil {
			fmt.Println("ladder: closing stub server:", err)
		}
	}()
	src := l.src.Split()
	h8 := channel.Rayleigh{}.Generate(src, 8, 8)
	h48 := channel.Rayleigh{}.Generate(src, 48, 48)
	y8 := make([]complex128, 8)
	y48 := make([]complex128, 48)
	for i := range y8 {
		y8[i] = src.ComplexNorm()
	}
	for i := range y48 {
		y48[i] = src.ComplexNorm()
	}
	rc, err := c.RegisterChannel(modulation.QPSK, h8)
	if err != nil {
		return err
	}
	keyed := func(int) error {
		_, err := c.DecodeWithChannel(rc, y8, 0, 0)
		return err
	}
	for _, r := range []struct {
		name string
		fn   func(int) error
	}{
		{"fronthaul.roundtrip_keyed_us", keyed},
		{"fronthaul.roundtrip_full8_us", func(int) error {
			_, err := c.DecodeQoS(modulation.QPSK, h8, y8, 0, 0)
			return err
		}},
		{"fronthaul.roundtrip_full48_us", func(int) error {
			_, err := c.DecodeQoS(modulation.BPSK, h48, y48, 0, 0)
			return err
		}},
		{"fronthaul.roundtrip_soft_us", func(int) error {
			_, err := c.DecodeSoftWithChannel(rc, y8, fronthaul.SoftQoS{NoiseVar: 0.1})
			return err
		}},
		{"fronthaul.roundtrip_precode_us", func(int) error {
			_, err := c.PrecodeWithChannel(rc, y8, 0, 0, 0)
			return err
		}},
		{"fronthaul.register_us", func(int) error {
			_, err := c.RegisterChannel(modulation.QPSK, h8)
			return err
		}},
	} {
		if err := l.row(r.name, r.fn); err != nil {
			return err
		}
	}
	before := mallocs()
	for i := 0; i < ladderSamples; i++ {
		if err := keyed(i); err != nil {
			return err
		}
	}
	l.rows["fronthaul.allocs_per_roundtrip"] = float64(mallocs()-before) / ladderSamples
	return nil
}

// orchestrationRows measures the scheduler over the stub solver and the
// planner's two per-request steps, on the workload's own problems.
func (l *ladder) orchestrationRows(decodes []*request) error {
	planner, err := qos.NewPlanner(nil)
	if err != nil {
		return err
	}
	s, err := sched.New(sched.Config{
		Pool: []backend.Backend{newStubBackend("stub")}, Planner: planner, Seed: solverSeed,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	w := l.w
	ctx := context.Background()
	if err := l.row("sched.noop_dispatch_us", func(i int) error {
		r := decodes[i%len(decodes)]
		_, err := s.Dispatch(ctx, &backend.Problem{Mod: w.mod, H: r.h, Y: r.y, TargetBER: w.targetBER}, w.deadline)
		return err
	}); err != nil {
		return err
	}
	target := w.targetBER
	if target == 0 {
		target = 1e-3
	}
	if err := l.row("qos.plan_us", func(i int) error {
		planner.Plan(qos.Request{
			Mod: w.mod, Nt: w.trace.CellUsers, SNRdB: w.snrDB[i%len(w.snrDB)],
			TargetBER: target, DeadlineMicros: 50_000,
		})
		return nil
	}); err != nil {
		return err
	}
	return l.row("qos.estimate_snr_us", func(i int) error {
		r := decodes[i%len(decodes)]
		qos.EstimateSNRdB(w.mod, r.h, r.y)
		return nil
	})
}

// coreRows measures the decoder's compile/execute split end to end.
func (l *ladder) coreRows(decodes []*request) error {
	w := l.w
	dec, err := core.New(decoderOptions(l.reads))
	if err != nil {
		return err
	}
	params := dec.Options().Params
	src := l.src.Split()
	// The first decode of a size builds the embedding template; keep it out
	// of the rows.
	if _, err := dec.DecodeWithParams(w.mod, decodes[0].h, decodes[0].y, params, 0, src); err != nil {
		return err
	}
	at := func(i int) *request { return decodes[i%len(decodes)] }

	if err := l.row("core.decode_recompile_us", func(i int) error {
		_, err := dec.DecodeWithParams(w.mod, at(i).h, at(i).y, params, 0, src)
		return err
	}); err != nil {
		return err
	}

	// A window's first compiled decode pays the compile and the lazily built
	// physical template; its second pays neither. The row is the difference.
	var first, second []float64
	seen := make(map[*linalg.Mat]bool)
	start := time.Now()
	for i := 0; i < len(decodes) && len(first) < ladderSamples; i++ {
		r := decodes[i]
		if seen[r.h] {
			continue
		}
		seen[r.h] = true
		if len(first) >= ladderMinSamples && time.Since(start) > 2*l.budget {
			break
		}
		for pass, dst := range []*[]float64{&first, &second} {
			t0 := time.Now()
			cc, hit, err := dec.CompileTracked(w.mod, r.h)
			if err != nil {
				return err
			}
			if hit != (pass == 1) {
				return fmt.Errorf("ladder: compile of sample %d pass %d: cache hit = %t", i, pass, hit)
			}
			if _, err := dec.DecodeCompiledWithParams(cc, r.y, params, 0, src); err != nil {
				return err
			}
			*dst = append(*dst, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	l.rows["core.decode_compiled_us"] = metrics.Median(second)
	l.rows["core.compile_miss_us"] = metrics.Median(first) - metrics.Median(second)

	// Soft and hard decodes of the same symbols, alternated so drift cancels.
	cc, err := dec.Compile(w.mod, decodes[0].h)
	if err != nil {
		return err
	}
	var hard, soft []float64
	start = time.Now()
	for i := 0; i < ladderSamples; i++ {
		if i >= ladderMinSamples && time.Since(start) > 2*l.budget {
			break
		}
		y := decodes[0].y
		t0 := time.Now()
		if _, err := dec.DecodeCompiledWithParams(cc, y, params, 0, src); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := dec.DecodeCompiledSoftWithParams(cc, y, softout.Spec{NoiseVar: decodes[0].noiseVar}, params, 0, src); err != nil {
			return err
		}
		hard = append(hard, float64(t1.Sub(t0)))
		soft = append(soft, float64(time.Since(t1)))
	}
	l.rows["core.soft_overhead_share"] = metrics.Median(soft)/metrics.Median(hard) - 1

	slots, err := dec.BatchSlots(cc.LogicalSpins())
	if err != nil {
		return err
	}
	k := min(slots, 8)
	items := make([]core.CompiledBatchItem, k)
	for i := range items {
		items[i] = core.CompiledBatchItem{CC: cc, Y: decodes[0].y}
	}
	perRun, err := l.timed(func(int) error {
		_, err := dec.DecodeCompiledSharedRunWithParams(items, params, 0, src)
		return err
	})
	if err != nil {
		return err
	}
	l.rows["core.shared_run_us_per_item"] = perRun / float64(k)
	return nil
}

// stageRows measures each stage of one recompiling decode on its own:
// reduction, embedding, the anneal kernel, unembedding, LLR extraction, and
// the classical-SA fallback.
func (l *ladder) stageRows(decodes []*request) error {
	w := l.w
	src := l.src.Split()
	at := func(i int) *request { return decodes[i%len(decodes)] }
	opts := decoderOptions(l.reads)
	n := reduction.NumVariables(w.mod, w.trace.CellUsers)
	graph := chimera.DW2Q()

	var emb *embedding.Embedding
	if err := l.row("embedding.embed_template_us", func(int) error {
		var err error
		emb, err = embedding.Embed(graph, n)
		return err
	}); err != nil {
		return err
	}
	if err := l.row("reduction.compile_us", func(i int) error {
		reduction.CompileChannel(w.mod, at(i).h)
		return nil
	}); err != nil {
		return err
	}
	r0 := decodes[0]
	cp := reduction.CompileChannel(w.mod, r0.h)
	var logical *qubo.Ising
	if err := l.row("reduction.biases_us", func(int) error {
		logical = cp.Biases(r0.y)
		return nil
	}); err != nil {
		return err
	}
	var ep *embedding.EmbeddedProblem
	if err := l.row("embedding.embed_ising_us", func(int) error {
		var err error
		ep, err = emb.EmbedIsing(logical, opts.JF, opts.ImprovedRange)
		return err
	}); err != nil {
		return err
	}
	machine := anneal.NewMachine()
	var pp *anneal.PreparedProgram
	if err := l.row("anneal.prepare_us", func(int) error {
		pp = machine.PrepareProgram(ep.Phys, opts.ImprovedRange)
		return nil
	}); err != nil {
		return err
	}

	var samples []anneal.Sample
	runs := 0
	before := mallocs()
	perRun, err := l.timed(func(int) error {
		var err error
		samples, err = machine.RunPrepared(pp, ep.Phys.H, opts.Params, src)
		runs++
		return err
	})
	if err != nil {
		return err
	}
	l.rows["anneal.allocs_per_run"] = float64(mallocs()-before) / float64(runs)
	l.rows["anneal.run_us_per_read"] = perRun / float64(l.reads)
	sc := anneal.ScheduleFromParams(machine, opts.Params)
	updates := float64(l.reads) * float64(sc.Sweeps+sc.PauseSweeps) * float64(emb.NumPhysical())
	l.rows["anneal.ns_per_spin_update"] = perRun * 1e3 / updates

	if err := l.row("embedding.unembed_us_per_read", func(i int) error {
		emb.Unembed(samples[i%len(samples)].Spins, src)
		return nil
	}); err != nil {
		return err
	}
	spec := softout.Spec{NoiseVar: r0.noiseVar}
	if err := l.row("softout.llr_us", func(int) error {
		ens := softout.NewEnsemble(n, spec.MaxCandidates)
		for _, s := range samples {
			spins, _ := emb.Unembed(s.Spins, src)
			ens.Add(w.mod.PostTranslate(qubo.BitsFromSpins(spins)), logical.Energy(spins))
		}
		ens.LLRs(spec)
		return nil
	}); err != nil {
		return err
	}
	sa := detector.NewClassicalSA(saSweeps, saRestarts)
	return l.row("detector.sa_decode_us", func(i int) error {
		_, err := sa.Decode(w.mod, at(i).h, at(i).y, src)
		return err
	})
}

// precodeRows measures the downlink VP program's compile and per-vector
// steps on the workload's channels.
func (l *ladder) precodeRows(precodes []*request) error {
	w := l.w
	if err := l.row("precoding.compile_us", func(i int) error {
		_, err := precoding.Compile(w.mod, precodes[i%len(precodes)].h, 0)
		return err
	}); err != nil {
		return err
	}
	r0 := precodes[0]
	vp, err := precoding.Compile(w.mod, r0.h, 0)
	if err != nil {
		return err
	}
	return l.row("precoding.problem_us", func(int) error {
		vp.Problem(r0.y)
		return nil
	})
}
