package detector

import (
	"errors"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"quamax/internal/linalg"
	"quamax/internal/modulation"
	"quamax/internal/rng"
	"quamax/internal/softout"
)

// sphereDecodeRef is SphereDecode as it stood before the compile/execute
// split: the complex Householder QR of linalg, a recursive walk over a
// closure and sort.Slice. The compiled search must return its symbols, its
// metric, its visited count and its verdict, bit for bit.
func sphereDecodeRef(mod modulation.Modulation, h *linalg.Mat, y []complex128, opts SphereOptions) (SphereResult, error) {
	nt := h.Cols
	var hr *linalg.Mat
	if mod.HasQuadrature() {
		hr = linalg.RealDecomposition(h)
	} else {
		hr = linalg.RealDecompositionI(h)
	}
	yr := linalg.StackReal(y)
	n := hr.Cols
	f := linalg.QRDecompose(hr)
	ybar := f.RotateReceived(yr)
	r := make([][]float64, n)
	for i := 0; i < n; i++ {
		r[i] = make([]float64, n)
		for j := i; j < n; j++ {
			r[i][j] = real(f.R.At(i, j))
		}
		if r[i][i] == 0 {
			return SphereResult{}, errors.New("detector: sphere decoder needs a full-rank channel")
		}
	}
	yb := make([]float64, n)
	for i := range yb {
		yb[i] = real(ybar[i])
	}
	residual := max(linalg.Norm2(yr)-linalg.Norm2(ybar), 0)
	levels := mod.Levels()
	radius2 := math.Inf(1)
	if opts.InitialRadius2 > 0 {
		radius2 = opts.InitialRadius2 - residual
	}
	best := make([]float64, n)
	bestMetric := math.Inf(1)
	found, exhausted, visited := false, false, 0
	x := make([]float64, n)
	type cand struct{ val, dist float64 }
	cands := make([][]cand, n)
	for i := range cands {
		cands[i] = make([]cand, len(levels))
	}
	var dfs func(level int, partial float64)
	dfs = func(level int, partial float64) {
		var proj float64
		for j := level + 1; j < n; j++ {
			proj += r[level][j] * x[j]
		}
		center := (yb[level] - proj) / r[level][level]
		cs := cands[level]
		for k, lvl := range levels {
			d := r[level][level] * (lvl - center)
			cs[k] = cand{val: lvl, dist: d * d}
		}
		sort.Slice(cs, func(a, b int) bool { return cs[a].dist < cs[b].dist })
		for _, c := range cs {
			visited++
			if opts.MaxVisitedNodes > 0 && visited > opts.MaxVisitedNodes {
				exhausted = true
				return
			}
			m := partial + c.dist
			if m >= radius2 || m >= bestMetric {
				break
			}
			x[level] = c.val
			if level == 0 {
				bestMetric, radius2 = m, m
				copy(best, x)
				found = true
				continue
			}
			dfs(level-1, m)
			if exhausted {
				return
			}
		}
	}
	dfs(n-1, 0)
	if !found {
		return SphereResult{Result: Result{VisitedNodes: visited}, Exhausted: exhausted}, ErrNoLeafFound
	}
	symbols := make([]complex128, nt)
	for i := range symbols {
		if mod.HasQuadrature() {
			symbols[i] = complex(best[i], best[i+nt])
		} else {
			symbols[i] = complex(best[i], 0)
		}
	}
	return SphereResult{Result: finish(mod, h, y, symbols, visited), Exhausted: exhausted}, nil
}

// The compiled search is the parent's search: every modulation, square and
// tall channels, SNRs from the noisy to the clean, with no radius, a radius
// and a node budget.
func TestSphereDecodeMatchesReference(t *testing.T) {
	src := rng.New(80)
	checked := map[string]int{}
	for _, mod := range modulation.All() {
		for _, shape := range [][2]int{{2, 2}, {4, 4}, {4, 6}, {6, 6}} {
			nt, nr := shape[0], shape[1]
			if mod == modulation.QAM64 && nt > 4 {
				continue // an unbudgeted 64-QAM search at 0 dB takes seconds
			}
			for _, snr := range []float64{0, 8, 16, 30, math.Inf(1)} {
				for trial := 0; trial < 4; trial++ {
					h, y, _, noiseVar := instance(src, mod, nt, nr, snr)
					for _, opts := range []SphereOptions{
						{},
						{InitialRadius2: float64(nr) * max(noiseVar, 1e-3)},
						{MaxVisitedNodes: 20},
					} {
						got, gotErr := SphereDecode(mod, h, y, opts)
						want, wantErr := sphereDecodeRef(mod, h, y, opts)
						if gotErr != wantErr || got.VisitedNodes != want.VisitedNodes || got.Exhausted != want.Exhausted ||
							!slices.Equal(got.Symbols, want.Symbols) || math.Float64bits(got.Metric) != math.Float64bits(want.Metric) {
							t.Fatalf("%v %d×%d at %v dB, %+v: got (%v, %d nodes, exhausted %v, metric %v, %v), parent (%v, %d nodes, exhausted %v, metric %v, %v)",
								mod, nr, nt, snr, opts, got.Symbols, got.VisitedNodes, got.Exhausted, got.Metric, gotErr,
								want.Symbols, want.VisitedNodes, want.Exhausted, want.Metric, wantErr)
						}
						switch {
						case gotErr != nil:
							checked["no leaf"]++
						case got.Exhausted:
							checked["exhausted"]++
						default:
							checked["finished"]++
						}
					}
				}
			}
		}
	}
	for _, k := range []string{"no leaf", "exhausted", "finished"} {
		if checked[k] == 0 {
			t.Fatalf("no search ended %s: %v", k, checked)
		}
	}
}

// bruteForceML enumerates every candidate vector; it returns the least
// metric and every candidate that attains it (to a relative 1e-9, so ties
// are not a verdict on the search).
func bruteForceML(mod modulation.Modulation, h *linalg.Mat, y []complex128) (float64, [][]complex128) {
	points := mod.Constellation()
	nt := h.Cols
	idx := make([]int, nt)
	type leaf struct {
		m float64
		v []complex128
	}
	var leaves []leaf
	best := math.Inf(1)
	for {
		v := make([]complex128, nt)
		for i, k := range idx {
			v[i] = points[k]
		}
		m := linalg.Norm2(linalg.VecSub(y, linalg.MulVec(h, v)))
		best = min(best, m)
		leaves = append(leaves, leaf{m, v})
		i := 0
		for ; i < nt; i++ {
			if idx[i]++; idx[i] < len(points) {
				break
			}
			idx[i] = 0
		}
		if i == nt {
			break
		}
	}
	var argmin [][]complex128
	for _, l := range leaves {
		if l.m <= best*(1+1e-9)+1e-12 {
			argmin = append(argmin, l.v)
		}
	}
	return best, argmin
}

// A certificate that finished is the brute-force ML answer: BPSK, QPSK and
// 16-QAM with Nt ≤ 4, noisy to clean. With a budget too small to finish, the
// answer is still no farther from y than the zero-forcing decision.
func TestCertifyEqualsBruteForceML(t *testing.T) {
	src := rng.New(81)
	var s SphereScratch
	proved, cut := 0, 0
	for _, mod := range []modulation.Modulation{modulation.BPSK, modulation.QPSK, modulation.QAM16} {
		for nt := 1; nt <= 4; nt++ {
			for _, nr := range []int{nt, nt + 2} {
				for _, snr := range []float64{-3, 5, 12, 25, math.Inf(1)} {
					for trial := 0; trial < 3; trial++ {
						h, y, _, _ := instance(src, mod, nt, nr, snr)
						p := CompileSphere(mod, h)
						ml, argmin := bruteForceML(mod, h, y)
						c := p.Certify(y, 1_000_000, 0, &s)
						if !c.OK || !c.Proved {
							t.Fatalf("%v %d×%d at %v dB: certificate %+v, want a finished search", mod, nr, nt, snr, c)
						}
						if !slices.ContainsFunc(argmin, func(v []complex128) bool { return slices.Equal(v, c.Symbols) }) ||
							math.Abs(c.Metric-ml) > 1e-9*ml+1e-12 {
							t.Fatalf("%v %d×%d at %v dB: certified %v at metric %v; brute force %v at %v", mod, nr, nt, snr, c.Symbols, c.Metric, argmin, ml)
						}
						proved++
						if c.Nodes > 2 {
							small := p.Certify(y, 2, 0, &s)
							if small.Proved || small.Nodes != 3 || small.Metric > small.Residual {
								t.Fatalf("%v %d×%d at %v dB: a 2-node budget gave %+v", mod, nr, nt, snr, small)
							}
							cut++
						}
					}
				}
			}
		}
	}
	if proved == 0 || cut == 0 {
		t.Fatalf("%d proved, %d cut: the grid does not exercise both", proved, cut)
	}
}

// The certificate's zero-forcing decision is detector.ZeroForcing's on QAM
// (the real decomposition's least squares is the complex one's, split), and
// its signal and residual are ‖H·v‖² and ‖y − H·v‖² of that decision.
func TestCertifyZeroForcingDecision(t *testing.T) {
	src := rng.New(82)
	var s SphereScratch
	for _, mod := range []modulation.Modulation{modulation.QPSK, modulation.QAM16} {
		for trial := 0; trial < 50; trial++ {
			h, y, _, _ := instance(src, mod, 6, 6, 12)
			zf, err := ZeroForcing(mod, h, y)
			if err != nil {
				t.Fatal(err)
			}
			c := CompileSphere(mod, h).Certify(y, 0, 0, &s)
			signal := linalg.Norm2(linalg.MulVec(h, zf.Symbols))
			if !c.OK || c.Proved || c.Nodes != 0 || !slices.Equal(c.Symbols, zf.Symbols) ||
				math.Float64bits(c.Residual) != math.Float64bits(zf.Metric) || math.Float64bits(c.Signal) != math.Float64bits(signal) ||
				c.Metric != c.Residual {
				t.Fatalf("%v: certificate without a search %+v; zero forcing %v, metric %v, signal %v", mod, c, zf.Symbols, zf.Metric, signal)
			}
		}
	}
}

// A rank-deficient channel — two equal columns, or more users than antennas —
// compiles to a program that certifies nothing.
func TestCertifyRankDeficient(t *testing.T) {
	src := rng.New(83)
	var s SphereScratch
	h, y, _, _ := instance(src, modulation.QPSK, 4, 4, 20)
	for r := 0; r < h.Rows; r++ {
		h.Set(r, 2, h.At(r, 1))
	}
	if c := CompileSphere(modulation.QPSK, h).Certify(y, 1000, 0, &s); c.OK || c.Proved {
		t.Fatalf("equal columns: %+v", c)
	}
	wide := linalg.NewMat(2, 3)
	for i := range wide.Data {
		wide.Data[i] = complex(float64(i+1), 1)
	}
	if c := CompileSphere(modulation.BPSK, wide).Certify([]complex128{1, 2}, 1000, 0, &s); c.OK || c.Proved {
		t.Fatalf("2 antennas, 3 BPSK users: %+v", c)
	}
	if _, err := SphereDecode(modulation.QPSK, h, y, SphereOptions{}); err == nil {
		t.Fatal("SphereDecode on a rank-deficient channel: want an error")
	}
}

// A warm scratch makes a certificate allocation-free, at every size it has
// served, the largest first.
func TestCertifyAllocatesNothingOnAWarmScratch(t *testing.T) {
	src := rng.New(84)
	var s SphereScratch
	type call struct {
		p *SphereProgram
		y []complex128
	}
	var calls []call
	for _, shape := range []struct {
		mod    modulation.Modulation
		nt, nr int
	}{{modulation.BPSK, 16, 16}, {modulation.QPSK, 8, 8}, {modulation.QAM16, 4, 6}} {
		h, y, _, _ := instance(src, shape.mod, shape.nt, shape.nr, 15)
		calls = append(calls, call{CompileSphere(shape.mod, h), y})
	}
	clip := softout.Spec{NoiseVar: 0.05}.ClipRadius()
	for _, c := range calls {
		c.p.Certify(c.y, 10_000, clip, &s)
	}
	for i, c := range calls {
		for _, clip := range []float64{0, clip} {
			if a := testing.AllocsPerRun(50, func() { c.p.Certify(c.y, 10_000, clip, &s) }); a != 0 {
				t.Errorf("program %d, clip %v: %v allocations per certificate on a warm scratch", i, clip, a)
			}
		}
	}
}

// One program serves many goroutines, each with its own scratch: every
// certificate, hard and soft, equals the serial one. Run under -race.
func TestCertifyConcurrentScratches(t *testing.T) {
	src := rng.New(85)
	h, _, _, noiseVar := instance(src, modulation.QPSK, 8, 8, 20)
	p := CompileSphere(modulation.QPSK, h)
	clips := []float64{0, softout.Spec{NoiseVar: noiseVar}.ClipRadius()}
	ys := make([][]complex128, 32)
	type answer struct {
		symbols []complex128
		gaps    []float64
	}
	want := make([][2]answer, len(ys))
	for i := range ys {
		_, ys[i], _, _ = instance(rng.New(int64(100+i)), modulation.QPSK, 8, 8, 15)
		var s SphereScratch
		for m, clip := range clips {
			c := p.Certify(ys[i], 10_000, clip, &s)
			want[i][m] = answer{slices.Clone(c.Symbols), slices.Clone(c.Gaps)}
		}
		if want[i][1].gaps == nil {
			t.Fatalf("vector %d: the soft search did not finish", i)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s SphereScratch
			for i, y := range ys {
				for m := range clips {
					m = (m + g) % len(clips) // goroutines alternate the modes out of step
					c := p.Certify(y, 10_000, clips[m], &s)
					if w := want[i][m]; !slices.Equal(c.Symbols, w.symbols) || !slices.Equal(c.Gaps, w.gaps) {
						t.Errorf("vector %d, clip %v: concurrent certificate %v %v, serial %v %v", i, clips[m], c.Symbols, c.Gaps, w.symbols, w.gaps)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// certifyHardRef is Certify before the clip: the zero-forcing incumbent, then
// the hard walk as it was — one radius, shrunk by every improving leaf, every
// remaining sibling cut where a child reaches it. The clip = 0 search must
// return its symbols, metric, node count and verdict.
func certifyHardRef(p *SphereProgram, y []complex128, maxNodes int, s *SphereScratch) Certificate {
	c := p.Certify(y, 0, 0, s)
	n, l := p.n, len(p.levels)
	var radius2 float64
	for level := n - 1; level >= 0; level-- {
		d := p.r[level*n+level] * (s.best[level] - p.center(level, s.yb, s.best))
		radius2 += d * d
	}
	level, improved := n-1, false
	s.partial[n] = 0
	p.children(level, s)
	for {
		if s.pos[level] == l {
			if level++; level == n {
				c.Proved = true
				break
			}
			continue
		}
		k := level*l + s.pos[level]
		s.pos[level]++
		if c.Nodes++; c.Nodes > maxNodes {
			break
		}
		m := s.partial[level+1] + s.cdst[k]
		if m >= radius2 {
			s.pos[level] = l
			continue
		}
		s.x[level] = p.levels[s.cidx[k]]
		if level == 0 {
			radius2, improved = m, true
			copy(s.best, s.x)
			continue
		}
		s.partial[level] = m
		level--
		p.children(level, s)
	}
	if improved {
		p.symbols(s.best, s.sym)
		_, c.Metric = p.residual(y, s)
	}
	return c
}

// Clip 0 is the hard certificate as it was, node for node: every modulation,
// noisy to clean, budgets that finish and budgets that cut.
func TestCertifyClipZeroIsTheHardSearch(t *testing.T) {
	src := rng.New(86)
	var s, ref SphereScratch
	nodes := 0
	for _, mod := range modulation.All() {
		for _, nt := range []int{2, 4, 8} {
			if mod == modulation.QAM64 && nt > 4 {
				continue
			}
			for _, snr := range []float64{0, 10, 20, math.Inf(1)} {
				for trial := 0; trial < 4; trial++ {
					h, y, _, _ := instance(src, mod, nt, nt, snr)
					p := CompileSphere(mod, h)
					for _, budget := range []int{5, 10_000} {
						got, want := p.Certify(y, budget, 0, &s), certifyHardRef(p, y, budget, &ref)
						if got.Nodes != want.Nodes || got.Proved != want.Proved || !slices.Equal(got.Symbols, want.Symbols) ||
							math.Float64bits(got.Metric) != math.Float64bits(want.Metric) || got.Gaps != nil {
							t.Fatalf("%v %d×%d at %v dB, budget %d: got %+v, the hard search %+v", mod, nt, nt, snr, budget, got, want)
						}
						nodes += got.Nodes
					}
				}
			}
		}
	}
	if nodes == 0 {
		t.Fatal("no node visited")
	}
}

// maxLogRef is exhaustive max-log: every candidate vector's ‖y − H·v‖² and,
// per data bit, the least with that bit 0 (e[0]) and with it 1 (e[1]).
func maxLogRef(mod modulation.Modulation, h *linalg.Mat, y []complex128) (e [2][]float64) {
	points := mod.Constellation()
	nt, q := h.Cols, mod.BitsPerSymbol()
	for b := range e {
		e[b] = make([]float64, nt*q)
		for k := range e[b] {
			e[b][k] = math.Inf(1)
		}
	}
	idx := make([]int, nt)
	v := make([]complex128, nt)
	for {
		for i, k := range idx {
			v[i] = points[k]
		}
		m := linalg.Norm2(linalg.VecSub(y, linalg.MulVec(h, v)))
		for k, b := range mod.DemapGrayVector(v) {
			e[b][k] = min(e[b][k], m)
		}
		i := 0
		for ; i < nt; i++ {
			if idx[i]++; idx[i] < len(points) {
				break
			}
			idx[i] = 0
		}
		if i == nt {
			break
		}
	}
	return e
}

// checkSoftCertificate runs the clipped search on (h, y) for each spec and
// fails unless it finished at the ML decision with exhaustive clamped
// max-log's LLRs (to rounding in the metrics) and saturated count. It returns
// how many LLRs saturated over the specs, and how many specs saturated some
// bits but not all.
func checkSoftCertificate(t testing.TB, mod modulation.Modulation, h *linalg.Mat, y []complex128, specs []softout.Spec, s *SphereScratch) (clamped, partly int) {
	t.Helper()
	p := CompileSphere(mod, h)
	e := maxLogRef(mod, h, y)
	ml := min(e[0][0], e[1][0]) // every leaf has bit 0 one way or the other
	for _, spec := range specs {
		c := p.Certify(y, 10_000_000, spec.ClipRadius(), s)
		if !c.OK || !c.Proved || len(c.Gaps) != len(e[0]) {
			t.Fatalf("%v %d×%d, %+v: certificate %+v, want a finished search with a gap per bit", mod, h.Rows, h.Cols, spec, c)
		}
		if math.Abs(c.Metric-ml) > 1e-9*ml+1e-12 {
			t.Fatalf("%v %d×%d, %+v: decision %v at %v; exhaustive ML metric %v", mod, h.Rows, h.Cols, spec, c.Symbols, c.Metric, ml)
		}
		got, gotSat := softout.AppendFromGaps(nil, mod.DemapGrayVector(c.Symbols), c.Gaps, spec)
		scale := 1.0
		if spec.NoiseVar > 0 {
			scale /= spec.NoiseVar
		}
		wantSat := 0
		for k := range got {
			want, sat := softout.LLR(e[0][k], e[1][k], spec)
			if sat {
				wantSat++
			}
			if math.Abs(got[k]-want) > 1e-9*(1+ml*scale) {
				t.Fatalf("%v %d×%d, %+v: bit %d LLR %v, exhaustive %v (all: %v)", mod, h.Rows, h.Cols, spec, k, got[k], want, got)
			}
		}
		if gotSat != wantSat {
			t.Fatalf("%v %d×%d, %+v: %d LLRs saturated, exhaustive %d (%v)", mod, h.Rows, h.Cols, spec, gotSat, wantSat, got)
		}
		clamped += gotSat
		if gotSat > 0 && gotSat < len(got) {
			partly++
		}
	}
	return clamped, partly
}

// A finished clipped search gives exactly the clamped max-log LLRs that
// enumerating every leaf gives: BPSK, QPSK and 16-QAM with Nt ≤ 4, σ² from
// the channel's own to a hundredth of it, unscaled (NoiseVar 0), and clamps
// from the default down to ones that saturate most bits.
func TestCertifySoftEqualsEnumeration(t *testing.T) {
	src := rng.New(87)
	var s SphereScratch
	cases, clamped, partly := 0, 0, 0
	for _, mod := range []modulation.Modulation{modulation.BPSK, modulation.QPSK, modulation.QAM16} {
		for nt := 1; nt <= 4; nt++ {
			for _, snr := range []float64{0, 8, 16, 25, math.Inf(1)} {
				for trial := 0; trial < 2; trial++ {
					h, y, _, noiseVar := instance(src, mod, nt, nt+trial, snr)
					var specs []softout.Spec
					for _, nv := range []float64{noiseVar, noiseVar / 100, 0} {
						for _, clamp := range []float64{0, 4, 0.5} {
							specs = append(specs, softout.Spec{NoiseVar: nv, Clamp: clamp})
						}
					}
					c, p := checkSoftCertificate(t, mod, h, y, specs, &s)
					cases, clamped, partly = cases+len(specs), clamped+c, partly+p
				}
			}
		}
	}
	if partly < cases/10 {
		t.Fatalf("%d of %d certificates clamp some bits but not all: the grid does not exercise the clip", partly, cases)
	}
	t.Logf("%d certificates, %d clamped LLRs, %d clamping some bits but not all", cases, clamped, partly)
}

// FuzzCertifySoft checks the clipped search against enumeration on seeded
// instances the fuzzer picks: modulation, size (Nt ≤ 3), SNR, σ² and clamp.
func FuzzCertifySoft(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(3), 10.0, 1.0, 0.0)
	f.Add(int64(2), uint8(2), uint8(2), 20.0, 0.01, 2.0)
	f.Add(int64(3), uint8(0), uint8(1), 0.0, 0.0, 0.5)
	f.Fuzz(func(t *testing.T, seed int64, modSel, ntSel uint8, snr, noiseScale, clamp float64) {
		mod := []modulation.Modulation{modulation.BPSK, modulation.QPSK, modulation.QAM16}[modSel%3]
		nt := 1 + int(ntSel%3)
		if math.IsNaN(snr) || snr < -10 || snr > 60 || !(noiseScale >= 0 && noiseScale <= 100) || !(clamp >= 0 && clamp <= 100) {
			t.Skip()
		}
		h, y, _, noiseVar := instance(rng.New(seed), mod, nt, nt+int(ntSel/3%2), snr)
		var s SphereScratch
		checkSoftCertificate(t, mod, h, y, []softout.Spec{{NoiseVar: noiseVar * noiseScale, Clamp: clamp}}, &s)
	})
}
