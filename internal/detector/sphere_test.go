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
						c := p.Certify(y, 1_000_000, &s)
						if !c.OK || !c.Proved {
							t.Fatalf("%v %d×%d at %v dB: certificate %+v, want a finished search", mod, nr, nt, snr, c)
						}
						if !slices.ContainsFunc(argmin, func(v []complex128) bool { return slices.Equal(v, c.Symbols) }) ||
							math.Abs(c.Metric-ml) > 1e-9*ml+1e-12 {
							t.Fatalf("%v %d×%d at %v dB: certified %v at metric %v; brute force %v at %v", mod, nr, nt, snr, c.Symbols, c.Metric, argmin, ml)
						}
						proved++
						if c.Nodes > 2 {
							small := p.Certify(y, 2, &s)
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
			c := CompileSphere(mod, h).Certify(y, 0, &s)
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
	if c := CompileSphere(modulation.QPSK, h).Certify(y, 1000, &s); c.OK || c.Proved {
		t.Fatalf("equal columns: %+v", c)
	}
	wide := linalg.NewMat(2, 3)
	for i := range wide.Data {
		wide.Data[i] = complex(float64(i+1), 1)
	}
	if c := CompileSphere(modulation.BPSK, wide).Certify([]complex128{1, 2}, 1000, &s); c.OK || c.Proved {
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
	for _, c := range calls {
		c.p.Certify(c.y, 10_000, &s)
	}
	for i, c := range calls {
		if a := testing.AllocsPerRun(50, func() { c.p.Certify(c.y, 10_000, &s) }); a != 0 {
			t.Errorf("program %d: %v allocations per certificate on a warm scratch", i, a)
		}
	}
}

// One program serves many goroutines, each with its own scratch: every
// certificate equals the serial one. Run under -race.
func TestCertifyConcurrentScratches(t *testing.T) {
	src := rng.New(85)
	h, _, _, _ := instance(src, modulation.QPSK, 8, 8, 20)
	p := CompileSphere(modulation.QPSK, h)
	ys := make([][]complex128, 32)
	want := make([][]complex128, len(ys))
	for i := range ys {
		_, ys[i], _, _ = instance(rng.New(int64(100+i)), modulation.QPSK, 8, 8, 15)
		var s SphereScratch
		want[i] = slices.Clone(p.Certify(ys[i], 10_000, &s).Symbols)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s SphereScratch
			for i, y := range ys {
				if got := p.Certify(y, 10_000, &s).Symbols; !slices.Equal(got, want[i]) {
					t.Errorf("vector %d: concurrent certificate %v, serial %v", i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
