// Package backend defines the pluggable solver interface of the data-center
// side of the C-RAN architecture. The paper runs every uplink decode on one
// quantum annealer; follow-up work (Kim et al., arXiv:2010.00682) argues the
// data center is really a *hybrid* classical–quantum structure that routes
// each problem to whichever solver meets its deadline. A Backend is one such
// solver: the simulated QPU (Annealer), logical-space simulated annealing
// (ClassicalSA), or the exact sphere decoder (Sphere). The pool scheduler in
// internal/sched owns a set of Backends and dispatches decode problems across
// them.
package backend

import (
	"context"

	"quamax/internal/anneal"
	"quamax/internal/core"
	"quamax/internal/linalg"
	"quamax/internal/modulation"
	"quamax/internal/rng"
)

// Problem is one ML MIMO detection problem: decode the transmitted symbols
// from the received vector Y through the estimated channel H. It is the unit
// of work the scheduler queues and a Backend solves.
type Problem struct {
	// Mod is the modulation; H the estimated channel; Y the received vector.
	Mod modulation.Modulation
	H   *linalg.Mat
	Y   []complex128
	// TargetBER is the AP's QoS target for this decode (0 = none). The
	// scheduler's planner turns it into an anneal budget; backends themselves
	// do not interpret it.
	TargetBER float64
	// Anneal, when non-nil, overrides the annealer backend's default run
	// knobs for this problem — the per-request anneal budget the QoS planner
	// sizes (reads, anneal time, pause). Classical backends ignore it.
	Anneal *anneal.Params
	// PT, when non-nil, overrides the parallel-tempering backend's run knobs
	// for this problem — the per-request replica-exchange budget (ladders,
	// rungs, sweeps) the QoS planner sizes against the deadline. Other
	// backends ignore it.
	PT *anneal.PTParams
	// ChainJF, when positive, overrides the annealer backend's ferromagnetic
	// chain strength |J_F| for this problem, so the run matches the operating
	// point the planner's TTS table was fitted at (e.g. 16-QAM fits want
	// far stronger chains than the BPSK default). Classical backends ignore
	// it.
	ChainJF float64
	// Reverse selects reverse annealing seeded from a linear detector
	// (planner's call when the fitted reverse operating point needs fewer
	// reads). Annealer backends fall back to a forward anneal when the seed
	// cannot be computed; classical backends ignore it.
	Reverse bool
	// Window, when non-nil, tags this problem as a symbol of a channel-
	// coherence window: every problem carrying a window with the same key
	// observes the same (Mod, H) and differs only in Y. The window is minted
	// once, where H enters the process (core.NewWindow), and carries its
	// classical state: the scheduler gathers same-window symbols by its key
	// onto an already-programmed backend, reads its sphere program for the
	// SNR estimate and the certificate, annealer backends decode through
	// their compiled-channel store under its key (compile H once, rewrite
	// biases per symbol), and Sphere searches its program. A window that is
	// not this problem's own (Mod, H) costs a rebuild, never a wrong answer:
	// each reader checks. Nil is a channel seen once.
	Window *core.Window
	// Soft requests per-bit LLRs alongside the hard decision (Result.LLRs):
	// annealer backends retain the read ensemble (internal/softout),
	// classical single-solution backends answer with saturated ±clamp LLRs.
	// Soft problems batch freely with hard ones — the ensemble is per
	// embedding slot — so batching needs no Soft compatibility rule.
	Soft bool
	// NoiseVar is the per-antenna complex noise variance σ² scaling LLRs on
	// soft problems (0 leaves energies unscaled). Hard problems ignore it.
	NoiseVar float64
	// LLRClamp bounds |LLR| on soft problems (0 = softout.DefaultClamp).
	LLRClamp float64
	// StopRepeats, when positive, makes ClassicalSA's configured restarts a
	// cap: the decode ends once that many restarts have returned the best
	// configuration so far. The scheduler sets it on a classical denial
	// (sched.Scheduler.plan), and only for problems with a target BER. Every other
	// backend ignores it — on device reads the rule is unsound (ICE-perturbed
	// reads cluster in local minima) — and it does not enter Batchable.
	StopRepeats int
	// StopRadius, when positive, is the noise radius around Y inside which an
	// annealer read's ML metric ‖y − Hv‖² is taken for the answer: solo
	// (Solve) or as a member of a shared run (SolveBatch), the problem stops
	// reading there — a soft one not before softout.MinEnsemble reads — while
	// any co-members read on; Result.Reads says where. The scheduler sizes it
	// on fitted plans (sched.Scheduler.plan, qos.StopRadius). Every other backend
	// ignores it, and it does not enter Batchable.
	StopRadius float64
	// Lattice marks Y as a lattice-search target (a vector-perturbation
	// precode) rather than a noisy observation of a transmitted vector: its
	// residual is the objective itself, so no noise radius applies.
	Lattice bool
	// Answer, when non-nil, lends the caller's storage for the answer: a
	// backend honoring it (Annealer, ClassicalSA, Sphere, ParallelTempering)
	// overwrites *Answer — nothing of what it held survives — appending its
	// Bits and LLRs to the capacity Answer's own hold (a hard answer's LLRs
	// left empty), and returns Answer. Another backend returns a Result of
	// its own. The scheduler answers a problem lending storage in it on every
	// route, and writes it only on Dispatch's own goroutine before Dispatch
	// returns: the certificate at admission; a fallback solve, which runs
	// there; a queued job's answer, which its backend writes into storage the
	// job owns (Dispatch returns on cancellation while the solve may still
	// run) and Dispatch copies over once the job is done (Result.Assign). It
	// does not enter Batchable.
	Answer *Result
}

// Users returns the transmitter count Nt.
func (p *Problem) Users() int { return p.H.Cols }

// LogicalSpins returns N, the Ising variable count the problem reduces to
// (one spin per data bit: Nt · bits-per-symbol). Problems with equal N are
// batch-compatible on the annealer: each fits the same clique-embedding slot.
func (p *Problem) LogicalSpins() int { return p.H.Cols * p.Mod.BitsPerSymbol() }

// Result is one solved problem.
type Result struct {
	// Bits are the decoded, Gray-demapped data bits.
	Bits []byte
	// Energy is the ML metric ‖y − H·v̂‖² of the returned decision (for the
	// annealer this equals the logical Ising energy by construction).
	Energy float64
	// ComputeMicros is the modeled solver compute time: QPU device time
	// Na·(Ta+Tp)/Pf for the annealer — Na the reads the run executed, the most
	// any of its members ran — measured wall time for classical backends.
	// Reported to the AP for TTB accounting.
	ComputeMicros float64
	// Backend names the solver that produced this result.
	Backend string
	// Batched is the number of problems that shared the solver run
	// (1 for a solo run).
	Batched int
	// LLRs are the per-bit log-likelihood ratios of a soft decode
	// (Problem.Soft; positive favors bit 1 — the internal/softout
	// convention); empty on hard decodes.
	LLRs []float64
	// LLRSaturated counts the LLR entries that hit the clamp (soft decodes
	// only) — aggregated into metrics.PoolStats.LLRSaturations.
	LLRSaturated int
	// CompileMicros is the wall time this solve spent compiling (or looking
	// up) the problem's channel program; nonzero only on compiled-channel
	// paths (Problem.Window). CacheHit reports whether that lookup was
	// served from the compiled-channel cache. Both feed the telemetry
	// plane's StageCompile span.
	CompileMicros float64
	CacheHit      bool
	// Reads is the number of reads this problem ran (anneals; for ClassicalSA,
	// its restarts) and BrokenChains the total broken logical chains across
	// those reads — the per-solve anneal-quality sample the scheduler replays
	// into the solver-health plane (internal/health) with backend
	// attribution. Other classical backends leave both zero.
	Reads        int
	BrokenChains int
	// ReadsPlanned is the cap Reads ran under: the run's read budget, or the
	// configured restarts. Reads < ReadsPlanned says Problem.StopRepeats or
	// Problem.StopRadius ended this problem's reads early.
	ReadsPlanned int
}

// Assign overwrites r with src — nothing of what r held survives — appending
// src's Bits and LLRs to the capacity r's own hold, and returns r.
func (r *Result) Assign(src *Result) *Result {
	if r != src {
		bits, llrs := append(r.Bits[:0], src.Bits...), append(r.LLRs[:0], src.LLRs...)
		*r = *src
		r.Bits, r.LLRs = bits, llrs
	}
	return r
}

// answerFor returns the Result a solve of p answers in, named for its
// backend: the storage p lends (Problem.Answer), emptied — its Bits and LLRs
// kept as capacity to append to — or a new one.
func answerFor(p *Problem, name string) *Result {
	res := p.Answer
	if res == nil {
		return &Result{Backend: name}
	}
	*res = Result{Backend: name, Bits: res.Bits[:0], LLRs: res.LLRs[:0]}
	return res
}

// Backend is a pluggable solver. Implementations must be safe for concurrent
// Solve calls (the scheduler may run one instance behind several workers) and
// must honor ctx cancellation at least between coarse solve phases.
type Backend interface {
	// Describe returns the backend's capability descriptor: identity,
	// latency model, per-solve economics, batch geometry and feature set.
	// The returned pointer is stable for the backend's lifetime and must be
	// treated as read-only; every dispatch decision (deadline projection,
	// cost-aware routing, stats attribution) flows through it.
	Describe() *Capabilities
	// Solve decodes one problem. src drives any stochastic component and is
	// owned by the caller (typically a per-worker stream).
	Solve(ctx context.Context, p *Problem, src *rng.Source) (*Result, error)
}

// BatchBackend is a Backend that can co-schedule several problems in one
// device run — the annealer, which packs batch-compatible problems into
// disjoint Chimera embedding slots so they share one Na·(Ta+Tp) anneal.
type BatchBackend interface {
	Backend
	// BatchSlots reports how many problems shaped like p fit one run
	// (≥ 1; 1 means batching degenerates to Solve).
	BatchSlots(p *Problem) int
	// SolveBatch solves len(ps) batch-compatible problems in one run,
	// returning results in order. All ps must have equal LogicalSpins,
	// satisfy Batchable pairwise, and len(ps) must not exceed BatchSlots.
	// A shared run has one schedule: when problems carry Anneal overrides,
	// the run uses the largest read budget among them.
	SolveBatch(ctx context.Context, ps []*Problem, src *rng.Source) ([]*Result, error)
}

// Batchable reports whether two problems may share one annealer run: equal
// logical spin count (same embedding-slot shape), no reverse-annealing
// request (reverse runs are seeded per problem), equal chain-strength
// override (one |J_F| compiles the whole run), and agreeing anneal
// schedules — both default, or overrides with the same per-anneal timing
// (read budgets may differ; the shared run takes the max).
func Batchable(a, b *Problem) bool {
	if a.LogicalSpins() != b.LogicalSpins() || a.Reverse || b.Reverse {
		return false
	}
	if a.ChainJF != b.ChainJF {
		return false
	}
	if (a.Anneal == nil) != (b.Anneal == nil) {
		return false
	}
	if a.Anneal != nil {
		pa, pb := *a.Anneal, *b.Anneal
		if pa.AnnealTimeMicros != pb.AnnealTimeMicros ||
			pa.PauseTimeMicros != pb.PauseTimeMicros ||
			pa.PausePosition != pb.PausePosition {
			return false
		}
	}
	return true
}
