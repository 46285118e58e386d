package anneal

// Parallel tempering (replica exchange) over the Metropolis engine — the
// strongest classical stand-in for the QPU (ParaMax; Kim et al., MobiCom
// 2021). One temperature ladder is a group of scalar twins (multispin.go),
// one per rung: every twin holds one replica at a fixed inverse temperature,
// a ladder sweep is one MSScalar.Sweep per twin, and every SwapEvery sweeps
// adjacent rungs attempt a replica exchange.
//
// The exchange acceptance rule is the standard detailed-balance swap: for
// rungs a and b, Δ = (β_a − β_b)·(E_a − E_b), accepted outright when Δ ≥ 0
// and with probability exp(Δ) otherwise. An accepted exchange swaps the two
// twins' TEMPERATURES (SetBeta on each), not their configurations — spins and
// cached fields never move, only the rung→twin assignment — so an exchange
// costs two β writes regardless of problem size. Exchange attempts alternate
// between even pairs (0,1)(2,3)… and odd pairs (1,2)(3,4)…, the usual
// non-interfering checkerboard.
//
// Ladders are independent: each gets its own source split (which seeds its
// rungs' streams, in rung order, and then supplies its exchange draws), and
// they are the groups of the replica runner RunMultiSpin's restarts also run
// on, goroutine-parallel and deterministic given src regardless of worker
// count. Exchange draws use math.Exp — the exchange path runs once per
// SwapEvery·n spin visits, so it is nowhere near the sweep's hot loop.
import (
	"errors"
	"fmt"
	"math"

	"quamax/internal/qubo"
	"quamax/internal/rng"
)

// MaxReplicasPerBlock caps a ladder's rungs. (The name is the word width of
// the packed 64-lane block ladders used to run on, which the test oracle
// still packs to.)
const MaxReplicasPerBlock = 64

// PTParams configures a parallel-tempering run.
type PTParams struct {
	// Rungs is the number of temperature rungs per ladder (2..64), one
	// scalar twin each. 0 means 16.
	Rungs int
	// Ladders is the number of independent ladders; each contributes one
	// cold-rung sample. 0 means 4.
	Ladders int
	// Sweeps is the number of Metropolis passes every rung performs.
	// 0 means 100.
	Sweeps int
	// SwapEvery is the sweep interval between exchange attempts. 0 means 2.
	SwapEvery int
	// BetaMin and BetaMax bound the geometric temperature ladder (hottest
	// and coldest rung). 0 means auto: 0.2/scale and 20/scale, where scale
	// is the program's largest |coefficient| — the same normalization the
	// device applies, so the defaults track the problem's energy scale.
	BetaMin, BetaMax float64
	// InitSpins optionally warm-starts every rung of every ladder from one
	// configuration (no randomness is consumed for initialization).
	InitSpins []int8
}

// withDefaults fills zero fields and validates.
func (p PTParams) withDefaults(prog *qubo.Sparse) (PTParams, error) {
	if p.Rungs == 0 {
		p.Rungs = 16
	}
	if p.Ladders == 0 {
		p.Ladders = 4
	}
	if p.Sweeps == 0 {
		p.Sweeps = 100
	}
	if p.SwapEvery == 0 {
		p.SwapEvery = 2
	}
	if p.BetaMin == 0 || p.BetaMax == 0 {
		scale := prog.MaxAbsCoefficient()
		if scale == 0 {
			scale = 1
		}
		if p.BetaMin == 0 {
			p.BetaMin = 0.2 / scale
		}
		if p.BetaMax == 0 {
			p.BetaMax = 20 / scale
		}
	}
	switch {
	case p.Rungs < 2 || p.Rungs > MaxReplicasPerBlock:
		return p, fmt.Errorf("anneal: %d PT rungs outside [2,%d]", p.Rungs, MaxReplicasPerBlock)
	case p.Ladders < 1:
		return p, errors.New("anneal: need at least one PT ladder")
	case p.Sweeps < 1:
		return p, errors.New("anneal: PT needs at least one sweep")
	case p.SwapEvery < 1:
		return p, errors.New("anneal: PT swap interval must be positive")
	case p.BetaMin <= 0 || p.BetaMax <= p.BetaMin:
		return p, errors.New("anneal: PT needs 0 < BetaMin < BetaMax")
	case p.InitSpins != nil && len(p.InitSpins) != prog.N:
		return p, fmt.Errorf("anneal: PT warm start has %d spins, want %d", len(p.InitSpins), prog.N)
	}
	return p, nil
}

// ladderBetas returns the geometric rung temperatures, hottest first.
func (p PTParams) ladderBetas() []float64 {
	betas := make([]float64, p.Rungs)
	lr := math.Log(p.BetaMax / p.BetaMin)
	for t := range betas {
		f := float64(t) / float64(p.Rungs-1)
		betas[t] = p.BetaMin * math.Exp(lr*f)
	}
	return betas
}

// PTResult is the outcome of one parallel-tempering run.
type PTResult struct {
	// BestSpins and BestEnergy are the lowest-energy configuration observed
	// at any exchange checkpoint on any rung of any ladder.
	BestSpins  []int8
	BestEnergy float64
	// Samples and Energies hold each ladder's final coldest-rung state.
	Samples  []Sample
	Energies []float64
	// SwapAttempts and Swaps count exchange proposals and acceptances across
	// all ladders (the acceptance ratio is the ladder-spacing health check).
	SwapAttempts, Swaps int
}

// ptLadder is one ladder's in-flight state.
type ptLadder struct {
	twins []MSScalar // the running worker's twins, one replica each
	exch  *rng.Source
	betas []float64 // rung temperatures, hottest first
	lane  []int     // rung → twin holding that rung's replica
	// running best for this ladder
	bestEnergy float64
	bestSpins  []int8
	attempts   int
	swaps      int
}

// exchange attempts replica exchanges on adjacent rung pairs of the given
// parity (0: pairs (0,1)(2,3)…, 1: pairs (1,2)(3,4)…).
func (l *ptLadder) exchange(parity int) {
	for t := parity; t+1 < len(l.betas); t += 2 {
		a, b := l.lane[t], l.lane[t+1]
		delta := (l.betas[t] - l.betas[t+1]) * (l.twins[a].energy - l.twins[b].energy)
		l.attempts++
		if delta < 0 && !(l.exch.Float64() < math.Exp(delta)) {
			continue
		}
		l.twins[a].SetBeta(l.betas[t+1])
		l.twins[b].SetBeta(l.betas[t])
		l.lane[t], l.lane[t+1] = b, a
		l.swaps++
	}
}

// checkpoint records the ladder's best configuration if any rung improved it.
func (l *ptLadder) checkpoint() {
	best := -1
	for r := range l.twins {
		if e := l.twins[r].energy; e < l.bestEnergy {
			l.bestEnergy = e
			best = r
		}
	}
	if best >= 0 {
		l.bestSpins = append(l.bestSpins[:0], l.twins[best].spins...)
	}
}

// run drives one ladder to completion on the given (started) twins.
func (l *ptLadder) run(p PTParams, twins []MSScalar) {
	l.twins = twins
	for t := range twins {
		l.lane[t] = t
		twins[t].SetBeta(l.betas[t])
	}
	for s := 1; s <= p.Sweeps; s++ {
		for r := range twins {
			twins[r].Sweep()
		}
		if s%p.SwapEvery == 0 {
			l.exchange((s / p.SwapEvery) % 2)
			l.checkpoint()
		}
	}
	l.checkpoint()
}

// RunPT executes parallel tempering on prog and returns the best observed
// configuration plus each ladder's final cold-rung sample. Coefficients are
// taken verbatim (normalize via Machine.Scale first to mimic the device's
// analog range). Ladders run on up to `workers` goroutines (≤ 0 means one);
// the result is deterministic given src regardless of worker count.
func RunPT(prog *qubo.Sparse, params PTParams, workers int, src *rng.Source) (*PTResult, error) {
	p, err := params.withDefaults(prog)
	if err != nil {
		return nil, err
	}
	if prog.N == 0 {
		return nil, errors.New("anneal: empty program")
	}
	eng := newReplicaRun(prog, p.Ladders, p.Rungs)
	betas := p.ladderBetas()
	ladders := make([]ptLadder, p.Ladders)
	lanes := make([]int, p.Ladders*p.Rungs)
	for i, ladderSrc := range src.SplitN(p.Ladders) {
		for r := 0; r < p.Rungs; r++ {
			eng.seeds[i*p.Rungs+r] = ladderSrc.Uint64()
		}
		ladders[i] = ptLadder{
			exch:       ladderSrc,
			betas:      betas,
			lane:       lanes[i*p.Rungs : (i+1)*p.Rungs],
			bestEnergy: math.Inf(1),
		}
	}
	res := &PTResult{
		BestEnergy: math.Inf(1),
		Samples:    make([]Sample, p.Ladders),
		Energies:   make([]float64, p.Ladders),
	}
	eng.run(workers, p.InitSpins, func(i int, twins []MSScalar) bool {
		l := &ladders[i]
		l.run(p, twins)
		cold := &twins[l.lane[p.Rungs-1]]
		res.Samples[i] = Sample{Spins: cold.Spins()}
		res.Energies[i] = cold.energy
		return false // nothing arms a stopping rule on ladders
	})
	msEngines.Put(eng)
	for i := range ladders {
		l := &ladders[i]
		res.SwapAttempts += l.attempts
		res.Swaps += l.swaps
		if l.bestEnergy < res.BestEnergy {
			res.BestEnergy = l.bestEnergy
			res.BestSpins = l.bestSpins
		}
	}
	return res, nil
}
