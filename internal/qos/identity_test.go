package qos

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"quamax/internal/channel"
	"quamax/internal/detector"
	"quamax/internal/linalg"
	"quamax/internal/modulation"
	"quamax/internal/rng"
	"quamax/internal/softout"
	"quamax/internal/trace"
)

// estimateSNRRef is EstimateSNRdB as it stood before the estimate was split
// into a per-channel and a per-symbol half: a full zero-forcing detection
// (pseudo-inverse) per received vector. The estimator, which reads its
// zero-forcing decision off the sphere program's triangle instead, must
// return the same float64.
func estimateSNRRef(mod modulation.Modulation, h *linalg.Mat, y []complex128) (float64, bool) {
	res, err := detector.ZeroForcing(mod, h, y)
	if err != nil {
		return 0, false
	}
	signal := linalg.MulVec(h, res.Symbols)
	sig := linalg.Norm2(signal)
	noise := linalg.Norm2(linalg.VecSub(y, signal))
	if sig == 0 {
		return 0, false
	}
	if noise == 0 {
		return math.Inf(1), true
	}
	return channel.SNRLinearToDB(sig / noise), true
}

// (t *Table) op and classCurve are the planner's table lookups as they stood
// before the table was indexed: a scan of every entry per question. They are
// the reference tableIndex is compared against.
func (t *Table) op(mod modulation.Modulation) ClassOp {
	name := mod.String()
	for _, op := range t.Ops {
		if op.Mod == name {
			return op
		}
	}
	return ClassOp{Mod: name, JF: 4, Ta: 1, Tp: 1, Sp: 0.35}
}

func (t *Table) classCurve(mod modulation.Modulation, nt int, mode Mode) (curve, bool, string) {
	name := mod.String()
	bestNt := -1
	anyMod := false
	for _, p := range t.Points {
		if p.Mod != name || p.Mode != mode {
			continue
		}
		anyMod = true
		if p.Nt >= nt && (bestNt == -1 || p.Nt < bestNt) {
			bestNt = p.Nt
		}
	}
	if !anyMod {
		return nil, false, ReasonUnfittedClass
	}
	if bestNt == -1 {
		return nil, false, ReasonOversizeNt
	}
	var c curve
	for _, p := range t.Points {
		if p.Mod == name && p.Mode == mode && p.Nt == bestNt {
			c = append(c, p)
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i].SNRdB < c[j].SNRdB })
	return c, true, ""
}

// The cells_mixed_qos shape: 8×8 QPSK over Ricean channels at 15–30 dB, every
// symbol of a window estimated through one sphere program.
func TestSplitSNREstimateBitIdentical(t *testing.T) {
	src := rng.New(15)
	tr, err := trace.GenerateMultiUser(src.Split(), trace.MultiUserConfig{
		Cells: 16, Users: 256, Requests: 512, ZipfS: 1.1,
		Antennas: 8, CellUsers: 8, WindowUses: 16, RiceanK: 3, Doppler: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	mod := modulation.QPSK
	perChannel := make(map[*linalg.Mat]*detector.SphereProgram)
	for i, r := range tr.Requests {
		snrDB := []float64{15, 20, 25, 30}[r.User%4]
		y := linalg.MulVec(r.H, mod.MapGrayVector(src.Bits(8*mod.BitsPerSymbol())))
		y = channel.AddAWGN(src, y, channel.NoiseSigma(mod, 8, snrDB))
		est := perChannel[r.H]
		if est == nil {
			est = detector.CompileSphere(mod, r.H)
			perChannel[r.H] = est
		}
		want, wantOK := estimateSNRRef(mod, r.H, y)
		for name, f := range map[string]func() (float64, bool){
			"per-channel": func() (float64, bool) { e := EstimateInto(est, y, 0, nil, nil, nil); return e.SNRdB, e.OK },
			"certifying":  func() (float64, bool) { e := EstimateInto(est, y, CertifyNodes, nil, nil, nil); return e.SNRdB, e.OK },
			"one-shot":    func() (float64, bool) { return EstimateSNRdB(mod, r.H, y) },
		} {
			got, ok := f()
			if ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("request %d, %s: got (%v, %v), reference (%v, %v)", i, name, got, ok, want, wantOK)
			}
		}
		if !wantOK || math.IsNaN(want) {
			t.Fatalf("request %d: reference estimate (%v, %v) at %v dB", i, want, wantOK, snrDB)
		}
	}
	if len(perChannel) < 16 || len(perChannel) == len(tr.Requests) {
		t.Fatalf("trace has %d channels over %d requests: windows are not being shared", len(perChannel), len(tr.Requests))
	}

	// A rank-deficient channel (two equal columns) and a noiseless one.
	h := channel.Rayleigh{}.Generate(src, 8, 8)
	x := mod.MapGrayVector(src.Bits(16))
	clean := linalg.MulVec(h, x)
	if got := EstimateInto(detector.CompileSphere(mod, h), clean, 0, nil, nil, nil); !got.OK || got.SNRdB < 100 {
		t.Fatalf("noiseless estimate (%v, %v), want a huge or infinite SNR", got.SNRdB, got.OK)
	}
	for r := 0; r < 8; r++ {
		h.Set(r, 1, h.At(r, 0))
	}
	y := linalg.MulVec(h, x)
	_, refOK := estimateSNRRef(mod, h, y)
	got := EstimateInto(detector.CompileSphere(mod, h), y, CertifyNodes, nil, nil, nil)
	_, oneOK := EstimateSNRdB(mod, h, y)
	if refOK || got.OK || got.Proved || oneOK {
		t.Fatalf("rank-deficient channel: ok = %v (reference), %v (per-channel, proved %v), %v (one-shot); want all false", refOK, got.OK, got.Proved, oneOK)
	}
}

// A certifying estimate is the plain estimate plus a certificate: Proved
// carries the Gray bits of an ML decision and their metric, and the estimate
// allocates only those bits.
func TestEstimateCertifiesAndAllocatesOnlyItsAnswer(t *testing.T) {
	src := rng.New(16)
	mod := modulation.QPSK
	h := channel.Rayleigh{}.Generate(src, 8, 8)
	est := detector.CompileSphere(mod, h)
	bits := src.Bits(16)
	y := channel.AddAWGN(src, linalg.MulVec(h, mod.MapGrayVector(bits)), channel.NoiseSigma(mod, 8, 20))
	got := EstimateInto(est, y, CertifyNodes, nil, nil, nil)
	ml, err := detector.SphereDecode(mod, h, y, detector.SphereOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Proved || got.Nodes == 0 || !reflect.DeepEqual(got.Bits, ml.Bits) || math.Abs(got.Metric-ml.Metric) > 1e-9*ml.Metric {
		t.Fatalf("certificate %+v, sphere decoder bits %v metric %v", got, ml.Bits, ml.Metric)
	}
	plain := EstimateInto(est, y, 0, nil, nil, nil)
	if plain.Proved || plain.Nodes != 0 || plain.Bits != nil || plain.SNRdB != got.SNRdB || plain.Residual != got.Residual {
		t.Fatalf("plain estimate %+v beside certifying %+v", plain, got)
	}
	if raceEnabled {
		return // the race detector's pool drops entries at random
	}
	if a := testing.AllocsPerRun(100, func() { EstimateInto(est, y, 0, nil, nil, nil) }); a != 0 {
		t.Errorf("Estimate without a search: %v allocations, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { EstimateInto(est, y, CertifyNodes, nil, nil, nil) }); a != 1 {
		t.Errorf("certifying Estimate: %v allocations, want 1 (the answer's bits)", a)
	}
	soft := &softout.Spec{NoiseVar: channel.NoiseSigma(mod, 8, 20) * channel.NoiseSigma(mod, 8, 20)}
	if a := testing.AllocsPerRun(100, func() { EstimateInto(est, y, CertifyNodes, soft, nil, nil) }); a != 2 {
		t.Errorf("soft certifying Estimate: %v allocations, want 2 (the answer's bits and LLRs)", a)
	}
}

// A soft certifying estimate is the hard one plus the clipped search's LLRs:
// the same SNR, residual, decision and metric, at least as many nodes (the
// soft search visits every node the hard one does), and the LLRs the
// certificate's gaps give through softout's one formula — scaled by the
// spec's σ², clamped at its clamp. A spec no LLR can honor (a negative clamp)
// runs no search.
func TestSoftEstimateCarriesTheCertificateLLRs(t *testing.T) {
	src := rng.New(17)
	mod := modulation.QPSK
	var s detector.SphereScratch
	for trial := 0; trial < 40; trial++ {
		h := channel.Rayleigh{}.Generate(src, 8, 8)
		est := detector.CompileSphere(mod, h)
		sigma := channel.NoiseSigma(mod, 8, []float64{15, 20, 25, 30}[trial%4])
		y := channel.AddAWGN(src, linalg.MulVec(h, mod.MapGrayVector(src.Bits(16))), sigma)
		spec := softout.Spec{NoiseVar: sigma * sigma, Clamp: []float64{0, 4}[trial%2]}
		hard, got := EstimateInto(est, y, CertifyNodes, nil, nil, nil), EstimateInto(est, y, CertifyNodes, &spec, nil, nil)
		if !hard.Proved || !got.Proved || got.SNRdB != hard.SNRdB || got.Residual != hard.Residual ||
			!reflect.DeepEqual(got.Bits, hard.Bits) || got.Metric != hard.Metric || got.Nodes < hard.Nodes {
			t.Fatalf("trial %d: soft estimate %+v beside hard %+v", trial, got, hard)
		}
		c := detector.CompileSphere(mod, h).Certify(y, CertifyNodes, spec.ClipRadius(), &s)
		llrs, saturated := softout.AppendFromGaps(nil, mod.DemapGrayVector(c.Symbols), c.Gaps, spec)
		if !reflect.DeepEqual(got.LLRs, llrs) || got.LLRSaturated != saturated || got.Nodes != c.Nodes {
			t.Fatalf("trial %d: LLRs %v (%d saturated, %d nodes), certificate's %v (%d, %d)", trial, got.LLRs, got.LLRSaturated, got.Nodes, llrs, saturated, c.Nodes)
		}
		if hard.LLRs != nil {
			t.Fatalf("trial %d: a hard estimate carries LLRs", trial)
		}
		if bad := EstimateInto(est, y, CertifyNodes, &softout.Spec{Clamp: -1}, nil, nil); bad.Proved || bad.Nodes != 0 || bad.SNRdB != hard.SNRdB {
			t.Fatalf("trial %d: a negative clamp gave %+v", trial, bad)
		}
	}
}

// One program serves every request of its window, from many goroutines.
func TestSNREstimatorConcurrentUse(t *testing.T) {
	src := rng.New(3)
	mod := modulation.QPSK
	h := channel.Rayleigh{}.Generate(src, 8, 8)
	est := detector.CompileSphere(mod, h)
	ys := make([][]complex128, 64)
	want := make([]float64, len(ys))
	for i := range ys {
		y := linalg.MulVec(h, mod.MapGrayVector(src.Bits(16)))
		ys[i] = channel.AddAWGN(src, y, channel.NoiseSigma(mod, 8, 20))
		want[i] = EstimateInto(est, ys[i], CertifyNodes, nil, nil, nil).SNRdB
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, y := range ys {
				if got := EstimateInto(est, y, CertifyNodes, nil, nil, nil).SNRdB; got != want[i] {
					t.Errorf("vector %d: concurrent estimate %v, serial %v", i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

func TestTableIndexMatchesScan(t *testing.T) {
	// The builtin table, the hand-built one, and one with out-of-order
	// points, a duplicate operating point, an unfitted modulation and a
	// non-canonical modulation name (which the scan never matched).
	shuffled := testTable()
	shuffled.Points[0], shuffled.Points[2] = shuffled.Points[2], shuffled.Points[0]
	shuffled.Points = append(shuffled.Points,
		Point{Mod: "qpsk", Nt: 2, SNRdB: 10, Mode: ModeForward, P0: 0.5},
		Point{Mod: "16-QAM", Nt: 2, SNRdB: 10, Mode: ModeReverse, P0: 0.5})
	shuffled.Ops = append(shuffled.Ops, ClassOp{Mod: "QPSK", JF: 9, Ta: 2, Tp: 2, Sp: 0.5})
	for name, tab := range map[string]*Table{"builtin": BuiltinTable(), "test": testTable(), "shuffled": shuffled} {
		if err := tab.Validate(); err != nil {
			t.Fatal(name, err)
		}
		ix := newTableIndex(tab)
		reasons := make(map[string]int)
		for _, mod := range append(modulation.All(), modulation.Modulation(99)) {
			if got, want := ix.op(mod), tab.op(mod); got != want {
				t.Fatalf("%s: op(%v) = %+v, scan %+v", name, mod, got, want)
			}
			for nt := 1; nt <= 64; nt++ {
				for _, mode := range []Mode{ModeForward, ModeReverse} {
					got, gotOK, gotReason := ix.classCurve(mod, nt, mode)
					want, wantOK, wantReason := tab.classCurve(mod, nt, mode)
					if gotOK != wantOK || gotReason != wantReason || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: classCurve(%v, %d, %s) = (%v, %v, %q), scan (%v, %v, %q)",
							name, mod, nt, mode, got, gotOK, gotReason, want, wantOK, wantReason)
					}
					reasons[gotReason]++
				}
			}
		}
		for _, r := range []string{"", ReasonUnfittedClass, ReasonOversizeNt} {
			if reasons[r] == 0 {
				t.Fatalf("%s: no question ended in reason %q; the grid does not cover it", name, r)
			}
		}
	}
}

// Planner counters are independent atomics: concurrent Plan calls must still
// add up exactly once the callers are done.
func TestPlannerStatsConcurrent(t *testing.T) {
	pl := testPlanner(t)
	reqs := []Request{
		{Mod: modulation.QPSK, Nt: 4, SNRdB: 20, TargetBER: 1e-3, DeadlineMicros: 1000},             // fit
		{Mod: modulation.QPSK, Nt: 4, SNRdB: 20},                                                    // no target
		{Mod: modulation.QPSK, Nt: 4, SNRdB: 20, TargetBER: 1e-3, Soft: true},                       // soft fit
		{Mod: modulation.QPSK, Nt: 16, SNRdB: 20, TargetBER: 1e-3},                                  // oversize
		{Mod: modulation.BPSK, Nt: 4, SNRdB: 20, TargetBER: 1e-3},                                   // unfitted
		{Mod: modulation.QPSK, Nt: 4, SNRdB: 10, TargetBER: 1e-3, DeadlineMicros: 1000},             // reverse or denial
		{Mod: modulation.QPSK, Nt: 8, SNRdB: 10, TargetBER: 1e-9, DeadlineMicros: 1e6},              // floor
		{Mod: modulation.QPSK, Nt: 4, SNRdB: 20, TargetBER: 1e-3, DeadlineMicros: 0.5},              // below anneal
		{Mod: modulation.QPSK, Nt: 4, SNRdB: 12, TargetBER: 0.0101, DeadlineMicros: 4, Soft: false}, // deadline exceeded
	}
	const workers, rounds = 8, 200
	var want Stats
	want.ByReason = make(map[string]uint64)
	serial := testPlanner(t)
	for _, r := range reqs {
		p := serial.Plan(r)
		want.ByReason[p.Reason] += workers * rounds
	}
	one := serial.Stats()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, r := range reqs {
					pl.Plan(r)
				}
			}
		}()
	}
	wg.Wait()
	got := pl.Stats()
	const k = workers * rounds
	want.Plans, want.Quantum, want.Classical = one.Plans*k, one.Quantum*k, one.Classical*k
	want.Reverse, want.Soft, want.PT, want.ReadsPlanned = one.Reverse*k, one.Soft*k, one.PT*k, one.ReadsPlanned*k
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent stats\n got %+v\nwant %+v", got, want)
	}
	if got.Plans != uint64(len(reqs))*k || len(got.ByReason) < 5 {
		t.Fatalf("stats %+v do not cover the request mix", got)
	}
}
