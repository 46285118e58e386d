package detector

import (
	"errors"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"quamax/internal/linalg"
	"quamax/internal/modulation"
)

// SphereOptions tune the sphere decoder.
type SphereOptions struct {
	// InitialRadius2 is the squared search radius C (Eq. 1 constraint
	// ‖y−Hv‖² ≤ C). Zero or negative means unbounded (∞): the first leaf
	// then sets the radius, which is the usual Schnorr–Euchner operation.
	InitialRadius2 float64
	// MaxVisitedNodes aborts runaway searches (0 = unlimited). When the
	// budget is exhausted the best leaf so far (if any) is returned with
	// Exhausted set.
	MaxVisitedNodes int
}

// ErrNoLeafFound is returned when the radius (or node budget) excluded every
// candidate.
var ErrNoLeafFound = errors.New("detector: sphere decoder found no candidate within the radius")

// SphereResult extends Result with search diagnostics.
type SphereResult struct {
	Result
	// Exhausted reports that MaxVisitedNodes stopped the search early.
	Exhausted bool
}

// SphereDecode runs a depth-first Schnorr–Euchner sphere decoder (§2.1) on
// the real-valued decomposition of the channel: it compiles the channel's
// triangle (CompileSphere) and searches it once (SphereProgram.Decode). It is
// the allocating one-shot form; a window of symbols through one channel
// compiles once and searches per symbol.
func SphereDecode(mod modulation.Modulation, h *linalg.Mat, y []complex128, opts SphereOptions) (SphereResult, error) {
	return CompileSphere(mod, h).Decode(y, opts)
}

// Decode is the sphere search of one received vector through the program:
// walk the tree from the last dimension with children ordered by distance
// from the zigzag center, pruning branches whose partial metric exceeds the
// current radius, and shrinking the radius at each improving leaf.
//
// VisitedNodes counts every tree node whose partial metric was evaluated —
// the complexity measure of Table 1.
func (p *SphereProgram) Decode(y []complex128, opts SphereOptions) (SphereResult, error) {
	if !p.fullRank {
		return SphereResult{}, errors.New("detector: sphere decoder needs a full-rank channel")
	}
	s := new(SphereScratch)
	p.rotate(y, s)
	radius2 := math.Inf(1)
	if opts.InitialRadius2 > 0 {
		// The part of y outside H's range adds the same to every leaf's
		// ‖y−Hv‖²; take it off so the radius bounds ‖y−Hv‖² exactly.
		var outside float64
		for _, v := range s.yr[p.n:] {
			outside += v * v
		}
		radius2 = opts.InitialRadius2 - outside
	}
	visited, found, exhausted := p.walk(s, radius2, 0, opts.MaxVisitedNodes)
	if !found {
		return SphereResult{Result: Result{VisitedNodes: visited}, Exhausted: exhausted}, ErrNoLeafFound
	}
	symbols := make([]complex128, p.nt)
	p.symbols(s.best, symbols)
	return SphereResult{Result: finish(p.mod, p.h, y, symbols, visited), Exhausted: exhausted}, nil
}

// SphereProgram is the channel-dependent half of the sphere search for one
// (mod, H): the real Householder QR of the real decomposition (BPSK keeps the
// Nt real columns, QAM uses 2Nt), built once per coherence window so each
// received vector pays one rotation, one back substitution and the tree walk.
// It is immutable and safe for concurrent use; it references H, which must
// not change.
type SphereProgram struct {
	mod      modulation.Modulation
	h        *linalg.Mat
	nt, nr   int       // complex users and antennas
	n, m     int       // real columns (tree depth) and real rows
	levels   []float64 // per-dimension PAM levels, ascending (shared, modulation.Levels)
	bpd      int       // data bits per real dimension
	r        []float64 // R, n×n row-major upper triangle, positive diagonal
	refl     []float64 // reflector k in refl[k*m+k : (k+1)*m] (Q = H_0·…·H_{n−1}·S)
	beta     []float64 // reflector k is I − beta[k]·v·vᵀ; 0 = none
	sign     []float64 // S: ȳ_k's sign, −1 where R's row k changed sign, else 1
	fullRank bool
}

// grayCodes[i] is PAM level i's Gray code, i ^ i>>1, whose bit j is the
// dimension's data bit bpd−1−j, for up to the 8 levels per dimension of
// 64-QAM.
var grayCodes = [...]uint8{0, 1, 3, 2, 6, 7, 5, 4}

// qrWork pools CompileSphere's working copy of the real decomposition
// (*[]float64), which no program keeps.
var qrWork sync.Pool

// rankTol is the smallest |R_kk| / max|R_jj| a program treats as full rank:
// below it the diagonal entry is a rounding residue of a rank-deficient
// channel (two equal columns leave 0 or a few 1e-16), and no decision read
// off the triangle means much.
const rankTol = 1e-10

// CompileSphere factors the real decomposition of h for the sphere search:
// Householder reflections in column order, R's diagonal made positive. The
// triangle is linalg.QRDecompose's, operation for operation, on real numbers;
// Q is kept as its reflectors, which a received vector is rotated by. A
// channel with fewer real rows than columns, or whose triangle is
// rank-deficient, compiles to a program that certifies nothing (Certify
// reports !OK). A compile allocates the program and one block its slices
// are carved from.
func CompileSphere(mod modulation.Modulation, h *linalg.Mat) *SphereProgram {
	nt, nr := h.Cols, h.Rows
	n := nt
	if mod.HasQuadrature() {
		n = 2 * nt
	}
	m := 2 * nr
	compiles.Add(1)
	p := &SphereProgram{mod: mod, h: h, nt: nt, nr: nr, n: n, m: m, levels: mod.Levels(), bpd: mod.BitsPerDim()}
	if m < n {
		return p
	}
	// at is the m×n real decomposition [Re H −Im H; Im H Re H] (BPSK: the
	// first block column only), held by columns (column j at at[j*m:]) so
	// every inner loop below runs down contiguous memory. Every entry is
	// written before it is read.
	work, _ := qrWork.Get().(*[]float64)
	if work == nil {
		work = new([]float64)
	}
	defer qrWork.Put(work)
	*work = grow(*work, m*n)
	at := *work
	for i := 0; i < nr; i++ {
		for j := 0; j < nt; j++ {
			re, im := real(h.At(i, j)), imag(h.At(i, j))
			at[j*m+i], at[j*m+i+nr] = re, im
			if n > nt {
				at[(j+nt)*m+i], at[(j+nt)*m+i+nr] = -im, re
			}
		}
	}
	prog := make([]float64, n*n+n*m+2*n)
	p.r, p.refl, p.beta, p.sign = prog[:n*n], prog[n*n:n*n+n*m], prog[n*n+n*m:n*n+n*m+n], prog[n*n+n*m+n:]
	for k := 0; k < n; k++ {
		col := at[k*m : (k+1)*m]
		var normx float64
		for _, x := range col[k:] {
			normx += x * x
		}
		normx = math.Sqrt(normx)
		if normx == 0 {
			continue
		}
		alpha := -normx
		if col[k] < 0 {
			alpha = normx
		}
		v := p.refl[k*m+k : (k+1)*m]
		copy(v, col[k:])
		v[0] -= alpha
		var vnorm2 float64
		for _, x := range v {
			vnorm2 += x * x
		}
		if vnorm2 == 0 {
			continue
		}
		beta := 2 / vnorm2
		p.beta[k] = beta
		// R ← (I − β·v·vᵀ)·R on columns k..n−1.
		for j := k; j < n; j++ {
			cj := at[j*m+k : (j+1)*m]
			var dot float64
			for i, x := range cj {
				dot += v[i] * x
			}
			dot *= beta
			for i := range cj {
				cj[i] -= dot * v[i]
			}
		}
	}
	// Positive diagonal: negate row k of R (and, through sign, ȳ_k).
	for k := 0; k < n; k++ {
		p.sign[k] = 1
		if at[k*m+k] < 0 {
			p.sign[k] = -1
			for j := k; j < n; j++ {
				at[j*m+k] = -at[j*m+k]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			p.r[i*n+j] = at[j*m+i]
		}
	}
	var maxDiag float64
	for k := 0; k < n; k++ {
		maxDiag = max(maxDiag, p.r[k*n+k])
	}
	p.fullRank = true
	for k := 0; k < n; k++ {
		if !(p.r[k*n+k] > rankTol*maxDiag) { // also catches NaN
			p.fullRank = false
		}
	}
	return p
}

// Mod returns the modulation the program was compiled for.
func (p *SphereProgram) Mod() modulation.Modulation { return p.mod }

// compiles counts CompileSphere's factorizations, process-wide.
var compiles atomic.Uint64

// SphereCompiles reports how many channels CompileSphere has factored in this
// process: the count a caller holding one program per coherence window keeps
// at one per window.
func SphereCompiles() uint64 { return compiles.Load() }

// SphereScratch is the per-call working memory of a SphereProgram: the
// stacked and rotated receive vectors, the walk's path, its sorted children,
// the search's metrics and the decision it returns. The zero value is ready;
// it grows to fit the largest program it serves, after which Certify allocates
// nothing. A scratch serves one call at a time.
type SphereScratch struct {
	yr, yb  []float64    // Qᵀ·[Re y; Im y] before R's sign flips, and ȳ
	x, best []float64    // the walk's path and best leaf (real dimensions)
	xi, bi  []int        // the same two as level indices
	partial []float64    // partial[l]: the metric of the path at levels ≥ l
	cidx    []int        // each level's children (level indices), nearest first
	cdst    []float64    // and their distances
	pos     []int        // each level's next child
	ml      float64      // the best leaf's metric, λ_ML
	lam     []float64    // lam[d·bpd+j]: λ̄, the counter-hypothesis metric of dimension d's Gray bit j
	free    []float64    // free[l]: the largest λ̄ of the dimensions below level l
	above   []float64    // above[l]: the largest metric a leaf could lower through the path's bits at levels ≥ l
	gaps    []float64    // a certificate's Gaps
	sym     []complex128 // a decision's symbols
}

// grow returns b resized to n, reallocated only when it is too small.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// fit sizes s for p, reusing its arrays when they are large enough.
func (s *SphereScratch) fit(p *SphereProgram) {
	n, l := p.n, len(p.levels)
	s.yr, s.yb = grow(s.yr, p.m), grow(s.yb, n)
	s.x, s.best = grow(s.x, n), grow(s.best, n)
	s.xi, s.bi = grow(s.xi, n), grow(s.bi, n)
	s.partial, s.free, s.above = grow(s.partial, n+1), grow(s.free, n+1), grow(s.above, n+1)
	s.cidx, s.cdst = grow(s.cidx, n*l), grow(s.cdst, n*l)
	s.pos = grow(s.pos, n)
	s.lam, s.gaps = grow(s.lam, n*p.bpd), grow(s.gaps, n*p.bpd)
	s.sym = grow(s.sym, p.nt)
}

// rotate fits s to p, stacks y as [Re y; Im y] into s.yr and rotates it
// there, reflector by reflector, into s.yb = ȳ: its last m − n entries are
// then the part of y outside H's range.
func (p *SphereProgram) rotate(y []complex128, s *SphereScratch) {
	s.fit(p)
	w := s.yr
	for i, v := range y {
		w[i], w[i+p.nr] = real(v), imag(v)
	}
	for k := 0; k < p.n; k++ {
		beta := p.beta[k]
		if beta == 0 {
			continue
		}
		v, wk := p.refl[k*p.m+k:(k+1)*p.m], w[k:]
		var dot float64
		for i, x := range v {
			dot += x * wk[i]
		}
		dot *= beta
		for i, x := range v {
			wk[i] -= dot * x
		}
	}
	for k := range s.yb {
		s.yb[k] = p.sign[k] * w[k] // exact: a sign change or nothing
	}
}

// symbols writes the complex symbols of real leaf x into out.
func (p *SphereProgram) symbols(x []float64, out []complex128) {
	for i := range out {
		if p.n > p.nt {
			out[i] = complex(x[i], x[i+p.nt])
		} else {
			out[i] = complex(x[i], 0)
		}
	}
}

// center is the unconstrained estimate of dimension level given the path
// below it in x: (ȳ_l − Σ_{j>l} R_lj·x_j) / R_ll.
func (p *SphereProgram) center(level int, yb, x []float64) float64 {
	n := p.n
	row := p.r[level*n : (level+1)*n]
	var proj float64
	for j := level + 1; j < n; j++ {
		proj += row[j] * x[j]
	}
	return (yb[level] - proj) / row[level]
}

// children fills level's candidate list in s, nearest the zigzag center
// first (Schnorr–Euchner), ties in level order, and rewinds its cursor.
func (p *SphereProgram) children(level int, s *SphereScratch) {
	l := len(p.levels)
	rll := p.r[level*p.n+level]
	c := p.center(level, s.yb, s.x)
	idx, dsts := s.cidx[level*l:(level+1)*l], s.cdst[level*l:(level+1)*l]
	for k, lvl := range p.levels {
		d := rll * (lvl - c)
		dist := d * d
		// Insertion: an equal distance stays behind the earlier level.
		i := k
		for ; i > 0 && dist < dsts[i-1]; i-- {
			idx[i], dsts[i] = idx[i-1], dsts[i-1]
		}
		idx[i], dsts[i] = k, dist
	}
	s.pos[level] = 0
}

// walk is the depth-first single-tree search on s.yb (Studer, Burg &
// Bölcskei, IEEE JSAC 2008). It holds the best leaf (s.best, metric λ_ML =
// s.ml, starting at radius2) and, when clip > 0, per Gray bit λ̄: the least
// metric among the leaves taken whose bit differs from the best leaf's
// (s.bi, the incumbent's bits on entry), clipped to at most λ_ML + clip. A
// leaf is worth reaching while its metric is below one it could lower — λ_ML
// through a bit it shares with the best leaf, λ̄ through one it does not —
// and a node while its partial metric is below the largest such metric of any
// leaf beneath it. With clip ≤ 0 every λ̄ would be λ_ML, so the walk keeps
// none and compares against λ_ML alone: the hard search, which takes only
// leaves strictly inside the radius, each shrinking it to its metric.
// maxNodes > 0 bounds the nodes visited. It returns the nodes visited,
// whether a leaf replaced the best one, and whether the budget ended the
// search.
func (p *SphereProgram) walk(s *SphereScratch, radius2, clip float64, maxNodes int) (visited int, found, exhausted bool) {
	n, levels := p.n, p.levels
	l := len(levels)
	soft := clip > 0
	ml := radius2 // λ_ML, kept in s.ml too for the soft bookkeeping
	s.ml = ml
	if soft {
		for k := range s.lam {
			s.lam[k] = radius2 + clip
		}
		s.above[n] = math.Inf(-1)
		p.bound(s, 1)
	}
	level := n - 1
	s.partial[n] = 0
	p.children(level, s)
	for {
		if s.pos[level] == l {
			if level++; level == n {
				return visited, found, false
			}
			continue
		}
		k := level*l + s.pos[level]
		s.pos[level]++
		if visited++; maxNodes > 0 && visited > maxNodes {
			return visited, found, true
		}
		m := s.partial[level+1] + s.cdst[k]
		cut := ml
		if soft {
			cut = max(s.above[level+1], s.free[level+1])
		}
		if m >= cut {
			// Children are distance-ordered: no remaining one reaches a metric
			// any of its leaves could lower.
			s.pos[level] = l
			continue
		}
		i := s.cidx[k]
		if soft {
			reach := max(s.above[level+1], p.reach(s, level, i))
			if m >= max(reach, s.free[level]) {
				continue
			}
			s.above[level], s.xi[level] = reach, i
		}
		s.x[level] = levels[i]
		if level == 0 {
			if soft {
				found = p.leaf(s, m, clip) || found
				ml = s.ml
				continue
			}
			ml = m
			copy(s.best, s.x)
			found = true
			continue
		}
		s.partial[level] = m
		level--
		p.children(level, s)
	}
}

// reach is the largest metric a leaf holding level i at dimension level could
// lower through that dimension's bits: λ_ML through a bit it shares with the
// best leaf, λ̄ through one it does not.
func (p *SphereProgram) reach(s *SphereScratch, level, i int) float64 {
	r := s.ml
	for diff := grayCodes[i] ^ grayCodes[s.bi[level]]; diff != 0; diff &= diff - 1 {
		r = max(r, s.lam[level*p.bpd+bits.TrailingZeros8(diff)])
	}
	return r
}

// leaf takes a soft walk's leaf s.x, of metric m. Below λ_ML it is the new
// best leaf: the old best becomes the counter-hypothesis of every bit the two
// differ on, and every λ̄ is clipped to the new λ_ML + clip. Otherwise it is a
// counter-hypothesis of the bits it differs from the best leaf on. leaf
// reports a new best leaf.
func (p *SphereProgram) leaf(s *SphereScratch, m, clip float64) bool {
	improved := m < s.ml
	for d, i := range s.xi {
		for diff := grayCodes[i] ^ grayCodes[s.bi[d]]; diff != 0; diff &= diff - 1 {
			k := d*p.bpd + bits.TrailingZeros8(diff)
			if improved {
				s.lam[k] = s.ml
			} else {
				s.lam[k] = min(s.lam[k], m)
			}
		}
	}
	if improved {
		s.ml = m
		copy(s.best, s.x)
		copy(s.bi, s.xi)
		for k, v := range s.lam {
			s.lam[k] = min(v, m+clip)
		}
	}
	p.bound(s, p.n)
	return improved
}

// bound recomputes what the walk prunes against once λ_ML or a λ̄ has moved:
// free at every level, and above along the path at levels 1 … top − 1.
func (p *SphereProgram) bound(s *SphereScratch, top int) {
	s.free[0] = math.Inf(-1)
	for d := 0; d < p.n; d++ {
		f := s.free[d]
		for _, v := range s.lam[d*p.bpd : (d+1)*p.bpd] {
			f = max(f, v)
		}
		s.free[d+1] = f
	}
	for level := top - 1; level >= 1; level-- {
		s.above[level] = max(s.above[level+1], p.reach(s, level, s.xi[level]))
	}
}

// Certificate is one received vector's budgeted search, seeded with the
// zero-forcing decision as its incumbent leaf.
type Certificate struct {
	// OK is false when the program is rank-deficient: nothing else is set.
	OK bool
	// Signal and Residual are the zero-forcing decision's ‖H·v‖² and
	// ‖y − H·v‖²: the receive-SNR estimate's signal and noise powers.
	Signal, Residual float64
	// Symbols is the best leaf — the zero-forcing decision when no leaf beat
	// it — and Metric its ‖y − H·v‖². Symbols is backed by the scratch and
	// valid until the scratch's next use.
	Symbols []complex128
	Metric  float64
	// Nodes counts the tree nodes the search visited (0 when none ran).
	Nodes int
	// Proved reports that the search finished inside its budget. The
	// incumbent made the radius the zero-forcing metric, so a finished search
	// has ruled out every leaf strictly closer to y than Symbols: Symbols is
	// an ML decision.
	Proved bool
	// Gaps is set when a search with a clip radius finished: per data bit, in
	// DemapGrayVector order of Symbols, how much farther from y than Symbols
	// the nearest leaf is whose bit differs — the max-log counter-hypothesis,
	// exact below the clip radius and +Inf where no such leaf lies strictly
	// inside it. Backed by the scratch, like Symbols.
	Gaps []float64
}

// Certify decodes one received vector: rotate y, take the zero-forcing
// decision off the triangle (back substitution, then per-dimension slicing),
// then walk the tree with that decision as the incumbent, visiting at most
// maxNodes nodes (maxNodes ≤ 0 runs no search: the zero-forcing decision
// alone). clip ≤ 0 asks for the ML decision only. clip > 0 is a radius in
// metric units within which every bit's counter-hypothesis is wanted too
// (Gaps): the walk then also visits the leaves that could lower one, and a
// search that finishes has every bit's max-log gap exact up to clip. It
// allocates nothing once s has served a program of this size.
func (p *SphereProgram) Certify(y []complex128, maxNodes int, clip float64, s *SphereScratch) Certificate {
	if !p.fullRank {
		return Certificate{}
	}
	p.rotate(y, s)
	n := p.n
	// Zero forcing: x̂ = R⁻¹·ȳ, sliced per dimension into s.best.
	for i := n - 1; i >= 0; i-- {
		row := p.r[i*n : (i+1)*n]
		sum := s.yb[i]
		for j := i + 1; j < n; j++ {
			sum -= row[j] * s.x[j]
		}
		s.x[i] = sum / row[i]
	}
	lv := len(p.levels)
	for i, v := range s.x {
		k := min(max(int(math.Round((v+float64(lv-1))/2)), 0), lv-1)
		s.best[i], s.bi[i] = p.levels[k], k
	}
	p.symbols(s.best, s.sym)
	c := Certificate{OK: true, Symbols: s.sym}
	c.Signal, c.Residual = p.residual(y, s)
	c.Metric = c.Residual
	if maxNodes <= 0 {
		return c
	}
	// The radius is the incumbent's metric in the walk's own arithmetic, so
	// the walk prunes the incumbent's path exactly and takes only strictly
	// better leaves.
	var radius2 float64
	for level := n - 1; level >= 0; level-- {
		d := p.r[level*n+level] * (s.best[level] - p.center(level, s.yb, s.best))
		radius2 += d * d
	}
	visited, improved, exhausted := p.walk(s, radius2, clip, maxNodes)
	c.Nodes, c.Proved = visited, !exhausted
	if improved {
		p.symbols(s.best, s.sym)
		_, c.Metric = p.residual(y, s)
	}
	if clip > 0 && c.Proved {
		c.Gaps = p.gaps(s, clip)
	}
	return c
}

// gaps writes the finished walk's λ̄ − λ_ML into s.gaps in data-bit order — a
// dimension's Gray bits most significant first, a symbol's in-phase bits
// before its quadrature ones — with +Inf where λ̄ never fell below the clip.
func (p *SphereProgram) gaps(s *SphereScratch, clip float64) []float64 {
	perSymbol := p.bpd * p.n / p.nt
	for d := 0; d < p.n; d++ {
		first := d%p.nt*perSymbol + d/p.nt*p.bpd + p.bpd - 1
		for j, v := range s.lam[d*p.bpd : (d+1)*p.bpd] {
			gap := math.Inf(1)
			if v < s.ml+clip {
				gap = v - s.ml
			}
			s.gaps[first-j] = gap
		}
	}
	return s.gaps
}

// residual returns ‖H·v‖² and ‖y − H·v‖² for the symbols in s.sym, in
// linalg.MulVec / Norm2 order.
func (p *SphereProgram) residual(y []complex128, s *SphereScratch) (signal, residual float64) {
	h := p.h
	for i := 0; i < p.nr; i++ {
		var sum complex128
		for j, v := range h.Data[i*h.Cols : (i+1)*h.Cols] {
			sum += v * s.sym[j]
		}
		signal += real(sum)*real(sum) + imag(sum)*imag(sum)
		d := y[i] - sum
		residual += real(d)*real(d) + imag(d)*imag(d)
	}
	return signal, residual
}
