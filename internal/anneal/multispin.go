package anneal

// The Metropolis engine (ROADMAP "One Metropolis engine"). Every sweep in the
// repository — device reads (Machine.RunSlots), the classical-SA fallback
// (RunMultiSpin) and parallel tempering (pt.go) — runs the one sweep body in
// this file, MSScalar.Sweep, over one kernel layout:
//
//   - Flat CSR. MSKernel stores the symmetric adjacency as row offsets plus
//     neighbor and weight arrays, rows sorted by neighbor, duplicates merged.
//   - Incremental local fields. lam[i] caches 2·(h_i + Σ_k J_ik·σ_k), the
//     doubled local field of spin i (doubled so the flip energy
//     dE = −2·σ_i·λ_i is a single sign transfer with no multiply). A visit is
//     then O(1); only an accepted flip pays the O(degree) neighbor walk,
//     scattering the precomputed per-edge deltas ±4·J_ik (flipW) into the
//     neighbors' cached doubled fields.
//   - Cheap draws. Each replica owns a splitmix64 stream, seeded with one
//     Uint64 from the run's or read's stream, that supplies its initial spins
//     and its Metropolis draws; the acceptance probability uses expNegY, a
//     deterministic interpolated 2^(−k/32) table, not math.Exp. Uphill
//     proposals past the rejection cut (β·dE ≈ 36.74, acceptance below the
//     draw's resolution) are rejected without consuming a draw.
//   - Incremental energies. The twin's energy accumulates the accepted dEs,
//     so it is always available (the parallel-tempering scheduler in pt.go
//     reads it at every exchange attempt) without an O(n + |E|) evaluation.
//
// A replica — one device read, one SA restart, one tempering rung — is one
// MSScalar: its spins, cached fields, energy, temperature and stream. Device
// reads do not share a program (ICE redraws every coupler per read), so each
// runs over a per-read kernel (anneal.go). SA restarts and PT rungs do share
// one, and run on the replica runner at the bottom of this file: seeds drawn
// up front in replica order, workers claiming replicas (or whole ladders)
// from an atomic counter, one pooled kernel and one pooled twin per worker.
//
// Sharing a program is what multi-spin coding exploits — 64 replicas packed
// into the bits of one word per spin, one CSR walk serving 64 trajectories —
// and the classical tier ran on such a block until the twin was tuned past
// it: an accepted flip in the block pays an indexed scatter per flipped lane
// per neighbor, and at SA/PT acceptance rates that outweighs the shared walk
// on every program the repository runs (dense logical N = 16…48 and the
// 624-qubit Chimera program alike, 1.6–2.4×). The block now lives in
// block_oracle_test.go as an independent second implementation: same
// arithmetic, operation order and stream discipline (one stream per replica,
// one bit per spin at init, one draw per uphill proposal below the rejection
// cut, all in spin order), so the differential harness (equiv_test.go,
// runner_test.go), the metamorphic tests and FuzzSweepEquivalence require
// bit-identical per-replica trajectories, spins and energies from the two,
// and a device read bit-identical to the twin on a kernel compiled from that
// read's perturbed program.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"quamax/internal/qubo"
	"quamax/internal/rng"
)

// The acceptance probability exp(−β·dE) is evaluated on a 1/32-octave grid:
// expTab[k] = 2^(−k/32), linearly interpolated (relative error < 6e-5, well
// under Metropolis sampling noise; the bench gate's gsrate holds the
// sampling quality). Proposals are scored directly in grid units
// y = β·dE·32·log₂e, with β pre-scaled once per sweep, so a draw costs one
// multiply, one truncation, two adjacent loads and a fused interpolation —
// no math.Exp on the hot path.
//
// rejectCutY is the grid position above which an uphill proposal is
// rejected without consuming a random draw: it corresponds to
// β·dE ≈ 36.74, where exp(−β·dE) < 2⁻⁵³ — below the resolution of a
// Float64 draw. The sweep and its test oracle apply the same cut, so the two
// stay bit-identical.
const (
	expTabLast = 1696 // last interpolation interval start; 1696/(32·log₂e) ≈ 36.74
	rejectCutY = float64(expTabLast)
	yPerBeta   = 32 * math.Log2E // grid units per unit of β·dE
)

// splitmix64 constants (Vigna). Each replica's acceptance stream is the
// splitmix64 sequence from its seed: state += smixGamma, output = mix64.
const smixGamma = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 output permutation.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// nextFloat advances replica stream s and returns a uniform draw in [0, 1)
// with 53 random bits — the engine's Metropolis draw.
func nextFloat(s *uint64) float64 {
	*s += smixGamma
	return float64(mix64(*s)>>11) * 0x1p-53
}

// nextSpinUp advances replica stream s and returns a fair coin — one initial
// spin.
func nextSpinUp(s *uint64) bool {
	*s += smixGamma
	return mix64(*s)>>63 != 0
}

// expTab[k] = 2^(−k/32) for k ≤ expTabLast+1 (one spare entry so
// interpolation at the cut has its right neighbor). The array is a power of
// two long so expNegY can mask its indices and carry no bounds checks.
var expTab = func() (t [2048]float64) {
	for k := range t[:expTabLast+2] {
		t[k] = math.Exp2(-float64(k) / 32)
	}
	return t
}()

// expNegY approximates exp(−β·dE) for a proposal already scored in grid
// units y = β·dE·yPerBeta ∈ [0, rejectCutY): table lookup plus linear
// interpolation. Deterministic by construction — the sweep and its test
// oracle call it with bit-identical arguments and get bit-identical
// probabilities.
func expNegY(y float64) float64 {
	n := int(y)
	a := expTab[n&2047]
	return a + (expTab[(n+1)&2047]-a)*(y-float64(n))
}

// MSKernel is a sparse Ising program compiled for the engine: the flat-CSR
// adjacency the sweep walks, with the per-edge doubled-field deltas
// (4·J, applied with the sign of the flipped spin). A kernel is immutable and
// shared by any number of concurrent twins.
type MSKernel struct {
	n      int
	offset float64
	h      []float64 // linear fields, len n
	start  []int32   // CSR row offsets, len n+1
	nbr    []int32   // neighbor spin per directed edge, ascending within a row
	w      []float64 // coupling J per directed edge
	flipW  []float64 // precomputed doubled-field flip delta 4·J per directed edge
}

// NewMSKernel compiles a sparse Ising program (coefficients taken verbatim —
// callers wanting the device's analog-range normalization divide by
// Machine.Scale first). Duplicate edges are merged by summation, mirroring
// qubo.Sparse.ToDense.
func NewMSKernel(prog *qubo.Sparse) (*MSKernel, error) {
	if prog.N == 0 {
		return nil, errors.New("anneal: empty program")
	}
	k := new(MSKernel)
	k.compile(prog)
	return k, nil
}

// compile (re)builds the kernel for prog, reusing whatever buffers the
// kernel already owns.
func (k *MSKernel) compile(prog *qubo.Sparse) {
	k.offset = prog.Offset
	k.h = append(k.h[:0], prog.H...)
	k.buildCSR(prog.N, prog.Edges)
	k.flipW = grow(k.flipW, len(k.w))
	for p, w := range k.w {
		k.flipW[p] = 4 * w
	}
}

// buildCSR compiles an undirected edge list into the kernel's symmetric
// flat-CSR adjacency (n, start, nbr, w): row i lists spin i's neighbors in
// ascending order — the flip scatter walks ascending addresses, and the row
// order fixes the float summation order of the cached fields (recompute) —
// with duplicate edges merged by summation in edge-list order.
func (k *MSKernel) buildCSR(n int, edges []qubo.SparseEdge) {
	// Row i's count goes to start[i+2], so that after the prefix sum
	// start[i+1] is where row i begins: the fill uses it as row i's cursor
	// and leaves it at row i's end, which is start[i+1]'s final meaning.
	start := grow(k.start, n+2)
	clear(start)
	for _, e := range edges {
		start[e.I+2]++
		start[e.J+2]++
	}
	for i := 2; i < n+2; i++ {
		start[i] += start[i-1]
	}
	nbr, w := grow(k.nbr, 2*len(edges)), grow(k.w, 2*len(edges))
	for _, e := range edges {
		nbr[start[e.I+1]], w[start[e.I+1]] = int32(e.J), e.W
		start[e.I+1]++
		nbr[start[e.J+1]], w[start[e.J+1]] = int32(e.I), e.W
		start[e.J+1]++
	}
	// Insertion-sort every row by neighbor, in place, merging duplicates and
	// compacting as it goes (out never overtakes the read position). Rows are
	// short or arrive nearly sorted — chains and couplers on Chimera, pairs in
	// (i, j>i) order from a dense logical program — so this is linear in
	// practice, and it needs no scratch.
	out := int32(0)
	for i := 0; i < n; i++ {
		lo, hi := start[i], start[i+1]
		start[i] = out
		for p := lo; p < hi; p++ {
			j, wj := nbr[p], w[p]
			q := out
			for q > start[i] && nbr[q-1] > j {
				q--
			}
			if q > start[i] && nbr[q-1] == j {
				w[q-1] += wj
				continue
			}
			copy(nbr[q+1:out+1], nbr[q:out])
			copy(w[q+1:out+1], w[q:out])
			nbr[q], w[q] = j, wj
			out++
		}
	}
	start[n] = out
	k.n, k.start, k.nbr, k.w = n, start[:n+1], nbr[:out], w[:out]
}

// grow returns s resized to n elements, reallocating only when it must; the
// contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// N returns the spin count the kernel was compiled for.
func (k *MSKernel) N() int { return k.n }

// MSScalar is one annealing trajectory — the engine's one sweep body and the
// state it advances: plain int8 spins, the cached doubled fields, the running
// energy, the inverse temperature and the replica's splitmix64 stream. A
// device read is one twin over that read's ICE-perturbed kernel (RunSlots),
// an SA restart one twin over the shared logical kernel (RunMultiSpin), a
// tempering ladder one twin per rung (RunPT). A twin is not safe for
// concurrent use — concurrency comes from running independent twins.
type MSScalar struct {
	k       *MSKernel
	spins   []int8
	lam     []float64 // doubled fields
	energy  float64
	beta    float64
	bscaled float64 // beta·yPerBeta
	state   uint64
}

// NewScalar allocates a twin over the kernel, consuming one Uint64 from src
// to seed its stream.
func (k *MSKernel) NewScalar(src *rng.Source) *MSScalar {
	s := &MSScalar{state: src.Uint64()}
	s.bind(k)
	return s
}

// bind points the twin at kernel k and sizes its buffers, reusing whatever
// it already owns. Spins, fields and energy are unspecified until the
// trajectory is started (Init, InitFrom).
func (s *MSScalar) bind(k *MSKernel) {
	s.k = k
	s.spins = grow(s.spins, k.n)
	s.lam = grow(s.lam, k.n)
}

// SetBeta sets the inverse temperature.
func (s *MSScalar) SetBeta(beta float64) {
	s.beta = beta
	s.bscaled = beta * yPerBeta
}

// Init draws a uniform random state (one coin per spin from the twin's
// stream, in spin order) and rebuilds fields and energy.
func (s *MSScalar) Init() {
	for i := range s.spins {
		if nextSpinUp(&s.state) {
			s.spins[i] = 1
		} else {
			s.spins[i] = -1
		}
	}
	s.recompute()
}

// InitFrom installs an explicit initial state; no randomness is consumed.
func (s *MSScalar) InitFrom(spins []int8) error {
	if len(spins) != s.k.n {
		return fmt.Errorf("anneal: initial state has %d spins, want %d", len(spins), s.k.n)
	}
	s.start(spins)
	return nil
}

// start begins a trajectory from initial (len n; no randomness consumed), or
// from a random state when initial is nil.
func (s *MSScalar) start(initial []int8) {
	if initial == nil {
		s.Init()
		return
	}
	copy(s.spins, initial)
	s.recompute()
}

// recompute rebuilds the cached doubled fields 2·(h_i + Σ J_ik·σ_k) and the
// program energy from the current spins. The summation orders are part of the
// engine's contract (the block oracle's from-scratch walks reproduce them bit
// for bit): a field sums its CSR row in ascending neighbor order; the energy
// adds the offset, the field terms in spin order, then each coupling once,
// from its lower-index spin's row. (Doubling by 2 is exact in IEEE-754.)
func (s *MSScalar) recompute() {
	k, spins := s.k, s.spins
	lam := s.lam[:len(spins)]
	h, starts := k.h[:len(spins)], k.start[:len(spins)+1]
	e := k.offset
	for i, v := range spins {
		row, ws := k.nbr[starts[i]:starts[i+1]], k.w[starts[i]:starts[i+1]]
		f := h[i]
		for p, j := range row {
			f += ws[p] * float64(spins[j])
		}
		lam[i] = 2 * f
		e += h[i] * float64(v)
	}
	for i, v := range spins {
		row, ws := k.nbr[starts[i]:starts[i+1]], k.w[starts[i]:starts[i+1]]
		si := float64(v)
		for p, j := range row {
			if int(j) > i {
				e += ws[p] * si * float64(spins[j])
			}
		}
	}
	s.energy = e
}

// Sweep performs one Metropolis pass over all spins, in spin order — the one
// sweep body every solve path runs. Per spin: dE = −σ_i·λ_i is a sign
// transfer on the doubled field; a downhill proposal (sign bit set) is
// accepted outright; an uphill one past the rejection cut is rejected without
// a draw, otherwise it costs one splitmix64 draw against expNegY; only an
// accepted flip pays the neighbor walk that scatters the precomputed ±4J
// deltas.
func (s *MSScalar) Sweep() {
	spins := s.spins
	lam := s.lam[:len(spins)]
	starts, nbrs, flipWs := s.k.start[:len(spins)+1], s.k.nbr, s.k.flipW
	bscaled, state, energy := s.bscaled, s.state, s.energy
	for i := range spins {
		// The spin bit, in the float sign position (−1 → 0, +1 → 1<<63).
		sgn := uint64((uint8(spins[i])+1)>>1) << 63
		deb := math.Float64bits(lam[i]) ^ sgn
		if deb>>63 == 0 { // uphill (dE ≥ 0): Metropolis draw
			y := bscaled * math.Float64frombits(deb) // dE = |λ|: the sign transfer came out non-negative
			if y >= rejectCutY {
				continue
			}
			if !(nextFloat(&state) < expNegY(y)) {
				continue
			}
		}
		row := nbrs[starts[i]:starts[i+1]]
		deltas := flipWs[starts[i]:starts[i+1]]
		for p, j := range row {
			lam[j] += math.Float64frombits(math.Float64bits(deltas[p]) ^ sgn)
		}
		spins[i] = -spins[i]
		energy += math.Float64frombits(deb)
	}
	s.state, s.energy = state, energy
}

// Energy returns the incrementally-maintained program energy.
func (s *MSScalar) Energy() float64 { return s.energy }

// Spins returns a copy of the current configuration.
func (s *MSScalar) Spins() []int8 { return append([]int8(nil), s.spins...) }

// MSSchedule is the simulated-annealing schedule of an engine run: a
// geometric β ramp over Sweeps passes with an optional fixed-temperature
// pause — the device's Ta/Tp semantics, so an engine run is comparable
// sweep-for-sweep with Machine.Run, whose forward anneals walk this schedule.
type MSSchedule struct {
	// BetaInitial and BetaFinal bound the geometric ramp.
	BetaInitial, BetaFinal float64
	// Sweeps is the ramp length (≥ 1).
	Sweeps int
	// PauseSweeps holds the schedule for this many extra sweeps at the
	// PauseAt ramp position (0 disables).
	PauseSweeps int
	// PauseAt is the ramp index where the pause sits.
	PauseAt int
}

// ScheduleFromParams converts device-style run knobs into the sweep schedule
// under the machine's calibration constants: Ta and Tp become sweep budgets,
// the pause position a ramp index.
func ScheduleFromParams(m *Machine, p Params) MSSchedule {
	ramp := int(math.Round(m.SweepsPerMicrosecond * p.AnnealTimeMicros))
	if ramp < 1 {
		ramp = 1
	}
	pause := 0
	if p.PauseTimeMicros > 0 {
		pause = int(math.Round(m.SweepsPerMicrosecond * p.PauseTimeMicros))
	}
	return MSSchedule{
		BetaInitial: m.BetaInitial,
		BetaFinal:   m.BetaFinal,
		Sweeps:      ramp,
		PauseSweeps: pause,
		PauseAt:     int(p.PausePosition * float64(ramp)),
	}
}

// at evaluates the geometric ramp at schedule fraction f ∈ [0,1].
func (sc MSSchedule) at(f float64) float64 {
	return sc.BetaInitial * math.Exp(math.Log(sc.BetaFinal/sc.BetaInitial)*f)
}

// beta evaluates the geometric ramp at sweep index s.
func (sc MSSchedule) beta(s int) float64 {
	if sc.Sweeps == 1 {
		return sc.at(1)
	}
	return sc.at(float64(s) / float64(sc.Sweeps-1))
}

// validate checks the schedule knobs.
func (sc MSSchedule) validate() error {
	if sc.Sweeps < 1 {
		return errors.New("anneal: schedule needs at least one sweep")
	}
	if sc.BetaInitial <= 0 || sc.BetaFinal <= 0 {
		return errors.New("anneal: schedule betas must be positive")
	}
	if sc.PauseSweeps < 0 {
		return errors.New("anneal: negative pause sweeps")
	}
	return nil
}

// betas expands the schedule into the β of every sweep, in order: the ramp,
// with the pause's held sweeps (the anneal pause that lets the system
// thermalize [43]) inserted after ramp index PauseAt. A run computes the list
// once (a device run keeps it in its Scratch until the schedule changes) and
// every read or replica walks it.
func (sc MSSchedule) betas() []float64 {
	return sc.appendBetas(make([]float64, 0, sc.Sweeps+sc.PauseSweeps))
}

// appendBetas is betas appending to out.
func (sc MSSchedule) appendBetas(out []float64) []float64 {
	for s := 0; s < sc.Sweeps; s++ {
		b := sc.beta(s)
		out = append(out, b)
		if s == sc.PauseAt {
			for k := 0; k < sc.PauseSweeps; k++ {
				out = append(out, b)
			}
		}
	}
	return out
}

// msEngine is a replica run's working set — the compiled kernel, every
// replica's stream seed, one group of twins per worker and the fan-out —
// pooled across runs under the solve path's one rule: a run allocates only
// what it returns (Scratch is the same for device runs).
type msEngine struct {
	k     MSKernel
	width int        // replicas per group: 1 for SA restarts, the rung count for a PT ladder
	seeds []uint64   // stream seed per replica, group-major; the caller fills it before run
	twins []MSScalar // `width` twins per worker
	next  atomic.Int32
	crew  crew

	// The tally of a capped run (RunMultiSpinUntil), in replica order: the
	// minimum-energy replica so far, how many replicas returned its
	// configuration, and how many replicas ran.
	best, repeats, ran int
}

var msEngines = sync.Pool{New: func() any { return new(msEngine) }}

// newReplicaRun takes an engine from the pool and prepares it to anneal
// `groups` groups of `width` replicas of prog. The caller draws every
// replica's seed into seeds up front, in replica order — which is what makes
// a run independent of its worker count — calls run, and once it has returned
// gives the engine back with msEngines.Put.
func newReplicaRun(prog *qubo.Sparse, groups, width int) *msEngine {
	eng := msEngines.Get().(*msEngine)
	eng.k.compile(prog)
	eng.width = width
	eng.seeds = grow(eng.seeds, groups*width)
	return eng
}

// run is the one replica runner behind RunMultiSpin and RunPT: up to
// `workers` goroutines (≤ 0 means one) claim groups from an atomic counter;
// for each, the worker's twins take the group's seeds, start from initial (or
// from random states drawn from their own streams when initial is nil), and
// drive anneals them and collects what the run returns before the worker
// claims the next group. drive runs concurrently for different groups. When
// drive reports the run settled, no further group is handed out; on one
// worker that makes a stopped run the exact prefix of the uncut one, since
// the seeds were drawn up front.
func (eng *msEngine) run(workers int, initial []int8, drive func(g int, twins []MSScalar) (settled bool)) {
	groups := len(eng.seeds) / eng.width
	workers = max(1, min(workers, groups))
	eng.twins = grow(eng.twins, workers*eng.width)
	eng.next.Store(0)
	eng.crew.run(workers, func(w int) {
		twins := eng.twins[w*eng.width : (w+1)*eng.width]
		for r := range twins {
			twins[r].bind(&eng.k)
		}
		for g := int(eng.next.Add(1)) - 1; g < groups; g = int(eng.next.Add(1)) - 1 {
			for r := range twins {
				twins[r].state = eng.seeds[g*eng.width+r]
				twins[r].start(initial)
			}
			if drive(g, twins) {
				eng.next.Store(int32(groups))
			}
		}
	})
}

// RunMultiSpin executes `replicas` independent simulated anneals of prog and
// returns every final state with its energy. Each replica is one scalar twin
// walking the schedule; replicas run on up to `workers` goroutines (≤ 0 means
// one). The run is deterministic given src: replica r always owns the stream
// seeded by the r-th Uint64 drawn from it, regardless of worker count. The
// returned samples share one backing array.
func RunMultiSpin(prog *qubo.Sparse, sched MSSchedule, replicas, workers int, src *rng.Source) ([]Sample, []float64, error) {
	return RunMultiSpinUntil(prog, sched, replicas, workers, 0, src)
}

// RunMultiSpinUntil is RunMultiSpin with `replicas` as a cap when repeats > 0:
// the run ends once `repeats` replicas have returned the minimum-energy
// configuration so far, and returns the replicas it ran — an exact prefix of
// the uncut run, since every seed is drawn up front and the rule is evaluated
// after every replica, in replica order. That order takes one worker, so a
// capped run ignores `workers`. Configurations are compared, not energies:
// equal spins can carry incrementally accumulated energies that differ in the
// last bit.
func RunMultiSpinUntil(prog *qubo.Sparse, sched MSSchedule, replicas, workers, repeats int, src *rng.Source) ([]Sample, []float64, error) {
	if err := sched.validate(); err != nil {
		return nil, nil, err
	}
	if replicas < 1 {
		return nil, nil, errors.New("anneal: need at least one replica")
	}
	if prog.N == 0 {
		return nil, nil, errors.New("anneal: empty program")
	}
	eng := newReplicaRun(prog, replicas, 1)
	for r := range eng.seeds {
		eng.seeds[r] = src.Uint64()
	}
	if repeats > 0 {
		workers = 1
	}
	n := prog.N
	betas := sched.betas()
	samples := make([]Sample, replicas)
	energies := make([]float64, replicas)
	spins := make([]int8, replicas*n)
	eng.ran = replicas
	eng.run(workers, nil, func(a int, twins []MSScalar) bool {
		s := &twins[0]
		for _, beta := range betas {
			s.SetBeta(beta)
			s.Sweep()
		}
		samples[a].Spins = spins[a*n : (a+1)*n : (a+1)*n]
		copy(samples[a].Spins, s.spins)
		energies[a] = s.energy
		if repeats < 1 {
			return false
		}
		switch {
		case a > 0 && slices.Equal(s.spins, samples[eng.best].Spins):
			eng.repeats++
		case a == 0 || s.energy < energies[eng.best]:
			eng.best, eng.repeats = a, 1
		}
		if eng.repeats < repeats {
			return false
		}
		eng.ran = a + 1
		return true
	})
	ran := eng.ran
	msEngines.Put(eng)
	return samples[:ran], energies[:ran], nil
}

// crew calls work(0) … work(workers−1) concurrently — work(0) on the
// caller's goroutine, so one worker (or workers ≤ 0) spawns nothing — and
// returns when all have. It lives in pooled run state (Scratch, msEngine) and
// keeps its WaitGroup and the goroutines' entry closures across runs, so
// fanning a run out allocates nothing once warm, whatever the worker count. A
// crew must not be copied after first use, nor run concurrently with itself;
// if work panics on the caller's goroutine the others may still be running,
// so its owner goes back to a pool only from a run that returned.
type crew struct {
	wg    sync.WaitGroup
	work  func(w int)
	entry []func() // entry[w-1] runs work(w) and signs off
}

func (c *crew) run(workers int, work func(w int)) {
	c.work = work
	for w := len(c.entry) + 1; w < workers; w++ {
		c.entry = append(c.entry, func() {
			defer c.wg.Done()
			c.work(w)
		})
	}
	for w := 1; w < workers; w++ {
		c.wg.Add(1)
		go c.entry[w-1]()
	}
	work(0)
	c.wg.Wait()
	c.work = nil
}
