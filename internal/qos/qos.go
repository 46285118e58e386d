// Package qos plans the anneal budget of each decode request — the
// data-center-side QoS brain the paper's serving argument requires (§5.3,
// Figs. 5–13): time-to-solution varies sharply with problem size, modulation
// and SNR, so a C-RAN deployment only meets frame deadlines if it sizes the
// number of reads (anneals), the anneal time, and the solver choice per
// request instead of running a fixed configuration.
//
// The planner is driven by a fitted TTS table: for each problem class
// (modulation, Nt) and a grid of SNR points it stores the measured per-anneal
// success probability p0 (the TTS ingredient of §5.2.1), the BER floor of the
// best-rank solution, and the BER spread of the non-best samples, measured
// with the same microbenchmark methodology as internal/experiments/tts.go.
// From these, the expected BER after Na anneals follows the Eq. 9 shape
//
//	E[BER](Na) ≈ floor + (1−p0)^Na · spread,
//
// which inverts to the read budget required for a target BER. The planner
// then checks the budget against the request deadline and the device read
// cap, decides between forward annealing, reverse annealing (when the fitted
// reverse operating point needs fewer reads — §8 [68]), and the classical
// fallback, and emits concrete anneal.Params for the backend.
//
// Tables come from three sources, in order of preference: a calibration run
// (Calibrate, persisted as JSON via Table.Save/Load — the quamax-serve
// -calibrate path), or the built-in coefficients of BuiltinTable measured on
// the repository's calibrated simulator. The hybrid-dispatch framing follows
// Kim et al. (arXiv:2010.00682); the do-not-over-provision-reads argument is
// the cost/power case of Kasi et al. (arXiv:2109.01465).
package qos

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"quamax/internal/anneal"
	"quamax/internal/metrics"
	"quamax/internal/modulation"
	"quamax/internal/telemetry"
)

// Mode selects the annealing style a table point was fitted under.
type Mode string

// The two fitted annealing modes.
const (
	// ModeForward is the paper's standard forward anneal from the uniform
	// superposition.
	ModeForward Mode = "forward"
	// ModeReverse is reverse annealing seeded from a linear detector's
	// decision (§8 future work, Venturelli & Kondratyev [68]).
	ModeReverse Mode = "reverse"
)

// Point is one fitted TTS grid point: the measured solution-quality
// statistics of one (modulation, Nt, SNR, mode) problem class under the
// class's fixed operating point.
type Point struct {
	// Mod is the modulation name (modulation.Parse format).
	Mod string `json:"mod"`
	// Nt is the transmitter (user) count of the class.
	Nt int `json:"nt"`
	// SNRdB is the receive SNR the class was measured at.
	SNRdB float64 `json:"snr_db"`
	// Mode is the annealing style the statistics were measured under.
	Mode Mode `json:"mode"`
	// P0 is the measured per-anneal probability of sampling the best-rank
	// (lowest-energy observed) solution — the success probability TTS(P)
	// divides by (§5.2.1).
	P0 float64 `json:"p0"`
	// FloorBER is the bit error rate of the best-rank solution itself — the
	// Na→∞ limit of Eq. 9. A target below the floor is unreachable on the
	// annealer no matter the read budget.
	FloorBER float64 `json:"floor_ber"`
	// SpreadBER is the mean bit error rate of the non-best samples — the
	// excess error paid when a run never draws the best rank.
	SpreadBER float64 `json:"spread_ber"`
}

// ClassOp is the fitted fixed operating point of one modulation class — the
// paper's Fix strategy (§5.3.2): the annealer parameters that optimize
// medians across instances of the class.
type ClassOp struct {
	// Mod is the modulation name.
	Mod string `json:"mod"`
	// JF is the ferromagnetic chain strength |J_F|.
	JF float64 `json:"jf"`
	// Ta is the anneal time in µs.
	Ta float64 `json:"ta"`
	// Tp is the mid-anneal pause in µs.
	Tp float64 `json:"tp"`
	// Sp is the pause position in (0,1).
	Sp float64 `json:"sp"`
}

// Table is a fitted TTS model: per-class operating points plus the measured
// grid the planner interpolates over.
type Table struct {
	// Note describes the fit provenance (calibration scale, seed).
	Note string `json:"note,omitempty"`
	// Ops lists one fixed operating point per modulation class.
	Ops []ClassOp `json:"ops"`
	// Points is the measured grid, any order.
	Points []Point `json:"points"`
}

// Save writes the table as indented JSON.
func (t *Table) Save(path string) error {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Load reads a table written by Save.
func Load(path string) (*Table, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t := new(Table)
	if err := json.Unmarshal(b, t); err != nil {
		return nil, fmt.Errorf("qos: parse %s: %w", path, err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("qos: %s: %w", path, err)
	}
	return t, nil
}

// Validate checks the table for usable, in-range entries.
func (t *Table) Validate() error {
	if len(t.Points) == 0 {
		return errors.New("table has no points")
	}
	for _, p := range t.Points {
		if _, err := modulation.Parse(p.Mod); err != nil {
			return fmt.Errorf("point %+v: %w", p, err)
		}
		if p.Nt < 1 {
			return fmt.Errorf("point %+v: non-positive Nt", p)
		}
		if p.P0 < 0 || p.P0 > 1 {
			return fmt.Errorf("point %+v: p0 outside [0,1]", p)
		}
		if p.Mode != ModeForward && p.Mode != ModeReverse {
			return fmt.Errorf("point %+v: unknown mode", p)
		}
	}
	for _, op := range t.Ops {
		if _, err := modulation.Parse(op.Mod); err != nil {
			return fmt.Errorf("op %+v: %w", op, err)
		}
		if op.Ta <= 0 {
			return fmt.Errorf("op %+v: non-positive Ta", op)
		}
	}
	return nil
}

// Request is one planning question: the problem class and QoS constraints of
// a decode about to be admitted.
type Request struct {
	// Mod and Nt identify the problem class.
	Mod modulation.Modulation
	Nt  int
	// SNRdB is the estimated receive SNR (EstimateSNRdB, or the AP's own
	// estimate).
	SNRdB float64
	// TargetBER is the QoS target; ≤ 0 means no target (the planner returns
	// the class default budget).
	TargetBER float64
	// DeadlineMicros is the remaining processing budget in µs; 0 means
	// unbounded.
	DeadlineMicros float64
	// Soft marks a soft-output request (per-bit LLRs feeding a soft-decision
	// FEC chain). The planner relaxes the raw-BER target by
	// SoftTargetRelief — soft-decision decoding recovers residual detector
	// errors a hard chain would pass through — and plans forward-only, since
	// a reverse ensemble clusters around its linear seed and yields biased
	// LLRs.
	Soft bool
}

// Plan is the planner's verdict for one request.
type Plan struct {
	// Quantum reports whether the annealer is the right solver; false means
	// the classical fallback is the better (or only) bet. A Classical
	// verdict is a recommendation: a pool with no classical solver may still
	// run the best-effort Params below when they are set.
	Quantum bool
	// Reverse selects reverse annealing.
	Reverse bool
	// Params are the concrete annealer knobs: NumAnneals is the planned read
	// budget, Ta/Tp/Sp the class operating point. On a deadline- or
	// cap-driven denial (ReasonDeadlineExceeded, ReasonReadsCap) Params
	// still carries the clamped best-effort budget — the most reads that fit
	// — for pools without a classical fallback; on other denials NumAnneals
	// is 0.
	Params anneal.Params
	// JF is the chain strength |J_F| the class was fitted at; backends must
	// run it for the model's statistics to apply (backend.Problem.ChainJF).
	JF float64
	// PredictedMicros is the planned device time NumAnneals·(Ta+Tp).
	PredictedMicros float64
	// PredictedBER is the model's expected BER at the planned budget.
	PredictedBER float64
	// PT, set only on classical verdicts of a PT-aware planner (Planner.PT),
	// is the deadline-sized replica-exchange budget for the fallback solve:
	// the most parallel-tempering effort (sweeps, then ladders) that fits the
	// request's remaining time under the configured cost model. Nil when the
	// planner has no PT cost model or nothing fits.
	PT *anneal.PTParams
	// Reason tags the decision for stats and debugging (see the Reason*
	// constants).
	Reason string
}

// PTCost configures the planner's parallel-tempering fallback sizing: the
// per-spin-sweep wall cost of the engine (backend.DefaultPTMicrosPerSpinSweep
// is the measured value; the planner cannot import backend, so the caller
// wires it). A deadline scales the engine's full-effort run down.
type PTCost struct {
	// MicrosPerSpinSweep is the wall cost of one Metropolis visit of one
	// spin on one rung — the same constant behind the PT backend's
	// capability-descriptor latency model, so planned budgets and admission
	// agree.
	MicrosPerSpinSweep float64
}

// minPTSweeps is the smallest per-ladder sweep count worth dispatching: below
// this the ladder cannot mix through even one exchange cycle per rung pair.
const minPTSweeps = 8

// sizePT attaches a deadline-sized PT budget to a classical verdict: sweeps
// shrink first (quality degrades gracefully with sweeps), then ladders; when
// even one ladder at minPTSweeps does not fit, the plan carries no PT budget.
func (pl *Planner) sizePT(req Request, p *Plan) {
	if pl.PT == nil {
		return
	}
	// The full-effort ceiling is the engine defaults (anneal.PTParams).
	pt := anneal.PTParams{Rungs: 16, Ladders: 4, Sweeps: 100}
	maxSweeps := pt.Sweeps
	if req.DeadlineMicros > 0 {
		n := float64(req.Nt * req.Mod.BitsPerSymbol())
		unit := float64(pt.Rungs) * n * pl.PT.MicrosPerSpinSweep * (1 + n/64)
		for {
			pt.Sweeps = int(req.DeadlineMicros / (unit * float64(pt.Ladders)))
			if pt.Sweeps >= minPTSweeps || pt.Ladders == 1 {
				break
			}
			pt.Ladders--
		}
		if pt.Sweeps < minPTSweeps {
			return
		}
		if pt.Sweeps > maxSweeps {
			pt.Sweeps = maxSweeps
		}
	}
	p.PT = &pt
}

// Decision reasons reported in Plan.Reason and aggregated in Stats.
const (
	// ReasonFit: the budget was fitted normally from the table.
	ReasonFit = "fit"
	// ReasonNoTarget: no target BER — the class default budget applies.
	ReasonNoTarget = "no-target"
	// ReasonUnfittedClass: the table has no points for this modulation.
	ReasonUnfittedClass = "unfitted-class"
	// ReasonOversizeNt: Nt exceeds every fitted size for the modulation.
	ReasonOversizeNt = "nt-oversize"
	// ReasonSNRBelowFit: the SNR estimate is below every fitted point, where
	// the model cannot be trusted to extrapolate.
	ReasonSNRBelowFit = "snr-below-fit"
	// ReasonFloorAboveTarget: even infinite reads converge above the target.
	ReasonFloorAboveTarget = "floor-above-target"
	// ReasonDeadlineBelowAnneal: the deadline is shorter than one anneal.
	ReasonDeadlineBelowAnneal = "deadline-below-anneal"
	// ReasonDeadlineExceeded: the required reads do not fit the deadline.
	ReasonDeadlineExceeded = "deadline-exceeded"
	// ReasonReadsCap: the required reads exceed the device cap.
	ReasonReadsCap = "reads-cap"
)

// DefaultMaxReads is the per-run read cap used when Planner.MaxReads is 0 —
// generous against the paper's Na = 100 operating point but finite, so an
// unreachable target degrades to the classical fallback instead of an
// unbounded run.
const DefaultMaxReads = 1000

// SoftTargetRelief is the LLR-aware effective-BER adjustment for soft
// requests: the raw (pre-FEC) BER target the read-budget inversion uses is
// the request's target × this factor. The justification is the classic
// ~2 dB soft-decision coding gain: at the waterfall slopes of the fitted
// curves, the soft chain tolerates roughly 4× the raw detector BER of the
// hard chain for equal post-FEC quality, so spending hard-chain read budgets
// on soft requests would over-provision exactly the way Kasi et al. warn
// against. The floor guard still applies to the relieved target, so an
// unreachable class stays a classical denial.
const SoftTargetRelief = 4

// StopRepeats is r of the classical tier's repeat rule (internal/sched arms
// it on a planner denial): SA restarts end once r of them have returned the
// best configuration so far. It is fixed on the seeded request corpus of
// internal/sched's TestStopRuleCorpus, which counts the answers it changes
// (r = 3 changed 43 of 5,698 on the sizing corpus, r = 5 three, r = 8 none),
// and is not an option.
const StopRepeats = 5

// StopRadiusDeviations sizes the device tier's stop radius (internal/sched
// arms it on fitted plans; core.Request.Radius reads it): the transmitted
// vector's ML metric ‖y − Hv‖² is σ²/2 · χ² with 2·Nr degrees of freedom —
// mean Nr·σ², deviation √Nr·σ² — and a read whose metric is inside the mean
// plus this many deviations is taken for the answer, ending its member's
// reads. Like StopRepeats it is fixed on TestStopRuleCorpus, which counts the
// answers it changes and the reads it saves, and is not an option.
const StopRadiusDeviations = 1

// StopRadius is the stop radius of a decode over nr receive antennas at noise
// variance noiseVar: σ²·(Nr + StopRadiusDeviations·√Nr). A hard request
// carries no σ²; its estimate is the zero-forcing residual per antenna
// (EstimateInto), which makes the radius residual·(1 + 1/√Nr) — a
// read at least about as close to y as the linear decision.
func StopRadius(noiseVar float64, nr int) float64 {
	return noiseVar * (float64(nr) + StopRadiusDeviations*math.Sqrt(float64(nr)))
}

// Planner answers anneal-budget questions from a fitted table. It is safe
// for concurrent use.
type Planner struct {
	// MaxReads caps NumAnneals per run (0 = DefaultMaxReads).
	MaxReads int
	// DefaultReads is the budget used when a request carries no target BER
	// (0 = the paper's Na = 100).
	DefaultReads int
	// Telemetry, when set, receives the duration of every Plan call on the
	// telemetry plane's StagePlan histogram (the planner owns that stage's
	// histogram feed; see quamax/internal/telemetry). Set before serving.
	Telemetry *telemetry.Recorder
	// PT, when set, makes classical verdicts carry a deadline-sized
	// replica-exchange budget (Plan.PT) for pools with a parallel-tempering
	// backend. Set before serving.
	PT *PTCost

	table *Table
	index tableIndex
	stats counters
}

// NewPlanner builds a planner over a validated table; a nil table selects
// the built-in coefficients. The table is indexed here, once: it must not
// change afterwards.
func NewPlanner(t *Table) (*Planner, error) {
	if t == nil {
		t = BuiltinTable()
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("qos: %w", err)
	}
	return &Planner{table: t, index: newTableIndex(t)}, nil
}

// Table exposes the planner's fitted table.
func (pl *Planner) Table() *Table { return pl.table }

// curve is the SNR-ordered fit of one (mod, Nt, mode) class.
type curve []Point

// classKey names the curves of one modulation (by table name) under one mode.
type classKey struct {
	mod  string
	mode Mode
}

// tableIndex is a table laid out for lookup: the first operating point listed
// per modulation, and per (modulation, mode) the SNR-sorted curve of every
// fitted Nt in ascending Nt.
type tableIndex struct {
	ops    map[string]ClassOp
	curves map[classKey][]curve
}

func newTableIndex(t *Table) tableIndex {
	ix := tableIndex{ops: make(map[string]ClassOp), curves: make(map[classKey][]curve)}
	for _, op := range t.Ops {
		if _, dup := ix.ops[op.Mod]; !dup {
			ix.ops[op.Mod] = op
		}
	}
	pts := append([]Point(nil), t.Points...)
	sort.SliceStable(pts, func(i, j int) bool {
		if pts[i].Nt != pts[j].Nt {
			return pts[i].Nt < pts[j].Nt
		}
		return pts[i].SNRdB < pts[j].SNRdB
	})
	for _, p := range pts {
		k := classKey{p.Mod, p.Mode}
		cs := ix.curves[k]
		if n := len(cs); n > 0 && cs[n-1][0].Nt == p.Nt {
			cs[n-1] = append(cs[n-1], p)
		} else {
			cs = append(cs, curve{p})
		}
		ix.curves[k] = cs
	}
	return ix
}

// op returns the operating point for mod, defaulting to the paper's Fix
// settings when the table carries none.
func (ix tableIndex) op(mod modulation.Modulation) ClassOp {
	name := mod.String()
	if op, ok := ix.ops[name]; ok {
		return op
	}
	return ClassOp{Mod: name, JF: 4, Ta: 1, Tp: 1, Sp: 0.35}
}

// classCurve returns the curve of (mod, nt, mode), choosing the smallest
// fitted Nt ≥ nt (a larger problem is never easier, so rounding Nt up is the
// conservative direction). ok is false when the modulation is unfitted or nt
// exceeds every fitted size. The curve is shared: callers must not modify it.
func (ix tableIndex) classCurve(mod modulation.Modulation, nt int, mode Mode) (curve, bool, string) {
	cs, ok := ix.curves[classKey{mod.String(), mode}]
	if !ok {
		return nil, false, ReasonUnfittedClass
	}
	for _, c := range cs {
		if c[0].Nt >= nt {
			return c, true, ""
		}
	}
	return nil, false, ReasonOversizeNt
}

// logit maps a probability into log-odds, clamped away from the poles so
// interpolation stays finite.
func logit(p float64) float64 {
	const eps = 1e-9
	p = math.Min(1-eps, math.Max(eps, p))
	return math.Log(p / (1 - p))
}

func invLogit(l float64) float64 { return 1 / (1 + math.Exp(-l)) }

// at interpolates the curve at snrDB: p0 in logit space (success probability
// curves are sigmoidal in SNR), floor and spread linearly. SNR above the
// fitted range clamps to the top point; below the range is the caller's
// error case.
func (c curve) at(snrDB float64) Point {
	if snrDB <= c[0].SNRdB {
		return c[0]
	}
	last := c[len(c)-1]
	if snrDB >= last.SNRdB {
		return last
	}
	for i := 1; i < len(c); i++ {
		if snrDB > c[i].SNRdB {
			continue
		}
		lo, hi := c[i-1], c[i]
		f := (snrDB - lo.SNRdB) / (hi.SNRdB - lo.SNRdB)
		return Point{
			Mod: lo.Mod, Nt: lo.Nt, SNRdB: snrDB, Mode: lo.Mode,
			P0:        invLogit(logit(lo.P0) + f*(logit(hi.P0)-logit(lo.P0))),
			FloorBER:  lo.FloorBER + f*(hi.FloorBER-lo.FloorBER),
			SpreadBER: lo.SpreadBER + f*(hi.SpreadBER-lo.SpreadBER),
		}
	}
	return last // unreachable
}

// readsFor inverts the E[BER](Na) ≈ floor + (1−p0)^Na·spread model: the
// smallest read budget whose predicted BER meets target. ok is false when
// the floor already exceeds the target.
func readsFor(pt Point, target float64) (int, bool) {
	if pt.FloorBER > target {
		return 0, false
	}
	if pt.P0 >= 1 || pt.SpreadBER <= 0 || pt.FloorBER+pt.SpreadBER <= target {
		return 1, true
	}
	// (1−p0)^Na ≤ (target − floor)/spread
	ratio := (target - pt.FloorBER) / pt.SpreadBER
	if ratio <= 0 {
		return 0, false
	}
	if pt.P0 <= 0 {
		return 0, false // never samples the best rank
	}
	na := math.Ceil(math.Log(ratio) / math.Log(1-pt.P0))
	if na < 1 {
		na = 1
	}
	if na > math.MaxInt32 {
		return 0, false
	}
	return int(na), true
}

// predictBER evaluates the model at a read budget.
func predictBER(pt Point, reads int) float64 {
	return pt.FloorBER + math.Pow(1-pt.P0, float64(reads))*pt.SpreadBER
}

// Plan sizes the anneal budget for one request. It never returns an error:
// any condition the model cannot serve degrades to the classical fallback
// with a tagged Reason.
func (pl *Planner) Plan(req Request) Plan {
	var start time.Time
	if pl.Telemetry != nil {
		start = time.Now()
	}
	p := pl.plan(req)
	if !p.Quantum {
		pl.sizePT(req, &p)
	}
	pl.stats.record(req, p)
	if pl.Telemetry != nil {
		pl.Telemetry.ObserveStage(telemetry.StagePlan,
			float64(time.Since(start))/float64(time.Microsecond))
	}
	return p
}

func (pl *Planner) plan(req Request) Plan {
	op := pl.index.op(req.Mod)
	params := anneal.Params{
		AnnealTimeMicros: op.Ta, PauseTimeMicros: op.Tp, PausePosition: op.Sp,
	}
	wall := params.AnnealWallMicros()

	maxReads := pl.MaxReads
	if maxReads <= 0 {
		maxReads = DefaultMaxReads
	}
	deadlineReads := maxReads
	if req.DeadlineMicros > 0 {
		deadlineReads = int(req.DeadlineMicros / wall)
		if deadlineReads < 1 {
			return Plan{Reason: ReasonDeadlineBelowAnneal}
		}
		if deadlineReads > maxReads {
			deadlineReads = maxReads
		}
	}

	if req.TargetBER <= 0 {
		reads := pl.DefaultReads
		if reads <= 0 {
			reads = 100
		}
		if reads > deadlineReads {
			reads = deadlineReads
		}
		params.NumAnneals = reads
		return Plan{
			Quantum: true, Params: params, JF: op.JF,
			PredictedMicros: float64(reads) * wall,
			PredictedBER:    math.NaN(),
			Reason:          ReasonNoTarget,
		}
	}

	// The LLR-aware effective target: a soft request's FEC chain absorbs
	// residual raw errors, so the inversion targets SoftTargetRelief× the
	// requested BER (never past the 0.5 coin-flip bound).
	target := req.TargetBER
	if req.Soft {
		target = math.Min(0.5, target*SoftTargetRelief)
	}

	type candidate struct {
		mode  Mode
		reads int
		pt    Point
	}
	modes := []Mode{ModeForward, ModeReverse}
	if req.Soft {
		modes = modes[:1] // reverse ensembles yield seed-biased LLRs
	}
	var best *candidate
	var failReason string
	for _, mode := range modes {
		c, ok, reason := pl.index.classCurve(req.Mod, req.Nt, mode)
		if !ok {
			if mode == ModeForward {
				failReason = reason
			}
			continue
		}
		if req.SNRdB < c[0].SNRdB {
			if mode == ModeForward {
				failReason = ReasonSNRBelowFit
			}
			continue
		}
		pt := c.at(req.SNRdB)
		reads, ok := readsFor(pt, target)
		if !ok {
			if mode == ModeForward {
				failReason = ReasonFloorAboveTarget
			}
			continue
		}
		if best == nil || reads < best.reads {
			best = &candidate{mode: mode, reads: reads, pt: pt}
		}
	}
	if best == nil {
		if failReason == "" {
			failReason = ReasonUnfittedClass
		}
		return Plan{Reason: failReason}
	}
	if best.reads > deadlineReads {
		// Denied, but a fallback-less pool can still run the most reads that
		// fit — strictly better than the static configuration.
		reason := ReasonDeadlineExceeded
		if best.reads > maxReads && deadlineReads == maxReads {
			reason = ReasonReadsCap
		}
		params.NumAnneals = deadlineReads
		return Plan{
			Reverse: best.mode == ModeReverse,
			Params:  params, JF: op.JF,
			PredictedMicros: float64(deadlineReads) * wall,
			PredictedBER:    predictBER(best.pt, deadlineReads),
			Reason:          reason,
		}
	}
	params.NumAnneals = best.reads
	return Plan{
		Quantum: true, Reverse: best.mode == ModeReverse,
		Params: params, JF: op.JF,
		PredictedMicros: float64(best.reads) * wall,
		PredictedBER:    predictBER(best.pt, best.reads),
		Reason:          ReasonFit,
	}
}

// Stats aggregates planner decisions for the serving process's stats dump.
type Stats struct {
	// Plans counts Plan calls; Quantum/Classical split the verdicts; Reverse
	// counts quantum plans that chose reverse annealing.
	Plans, Quantum, Classical, Reverse uint64
	// Soft counts planning questions for soft-output requests (those whose
	// targets were relieved by SoftTargetRelief).
	Soft uint64
	// PT counts classical verdicts that carried a deadline-sized
	// parallel-tempering budget (Plan.PT).
	PT uint64
	// ReadsPlanned totals NumAnneals over quantum plans (ReadsPlanned/Quantum
	// is the mean planned budget — the over-provisioning metric of Kasi et
	// al.).
	ReadsPlanned uint64
	// ByReason counts decisions per Reason tag.
	ByReason map[string]uint64
}

// reasons lists every Reason tag a plan can carry; counters.byReason is
// indexed in this order.
var reasons = [...]string{
	ReasonFit, ReasonNoTarget, ReasonUnfittedClass, ReasonOversizeNt, ReasonSNRBelowFit,
	ReasonFloorAboveTarget, ReasonDeadlineBelowAnneal, ReasonDeadlineExceeded, ReasonReadsCap,
}

// counters is the live form of Stats: independent atomics, so concurrent
// Plan calls share no lock. Plans is not stored (it is Quantum + Classical).
type counters struct {
	quantum, classical, reverse, soft, pt, reads atomic.Uint64
	byReason                                     [len(reasons)]atomic.Uint64
}

func (c *counters) record(req Request, p Plan) {
	for i, r := range reasons {
		if r == p.Reason {
			c.byReason[i].Add(1)
			break
		}
	}
	if req.Soft {
		c.soft.Add(1)
	}
	if p.Quantum {
		c.quantum.Add(1)
		c.reads.Add(uint64(p.Params.NumAnneals))
		if p.Reverse {
			c.reverse.Add(1)
		}
	} else {
		c.classical.Add(1)
		if p.PT != nil {
			c.pt.Add(1)
		}
	}
}

// Stats snapshots the planner counters. Each counter is read on its own, so
// a snapshot taken while plans are in flight may be a plan apart between
// fields; ByReason lists only the reasons seen.
func (pl *Planner) Stats() Stats {
	c := &pl.stats
	out := Stats{
		Quantum: c.quantum.Load(), Classical: c.classical.Load(), Reverse: c.reverse.Load(),
		Soft: c.soft.Load(), PT: c.pt.Load(), ReadsPlanned: c.reads.Load(),
		ByReason: make(map[string]uint64),
	}
	out.Plans = out.Quantum + out.Classical
	for i, r := range reasons {
		if n := c.byReason[i].Load(); n > 0 {
			out.ByReason[r] = n
		}
	}
	return out
}

// Samples exports the planner's decisions as series: one counter per reason
// seen, labelled with the verdict that reason implies (a fit or a missing
// target dispatches to the annealer, every other reason denies it), and the
// reads planned over quantum verdicts — reads over quantum decisions is the
// mean planned budget. This is the one place a Stats field becomes an
// exported metric.
func (s Stats) Samples() []metrics.Sample {
	out := []metrics.Sample{metrics.Counter("quamax_planner_reads_planned_total",
		"Anneal reads planned over quantum verdicts.", float64(s.ReadsPlanned))}
	for reason, n := range s.ByReason {
		verdict := "classical"
		if reason == ReasonFit || reason == ReasonNoTarget {
			verdict = "quantum"
		}
		out = append(out, metrics.Counter("quamax_planner_decisions_total", "Planner decisions by verdict and reason.", float64(n),
			metrics.Label{Key: "verdict", Value: verdict}, metrics.Label{Key: "reason", Value: reason}))
	}
	return out
}

// String renders a compact multi-line report suitable for logs.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "planner: plans=%d quantum=%d (reverse=%d) classical=%d (pt=%d) soft=%d",
		s.Plans, s.Quantum, s.Reverse, s.Classical, s.PT, s.Soft)
	if s.Quantum > 0 {
		fmt.Fprintf(&b, " mean-reads=%.1f", float64(s.ReadsPlanned)/float64(s.Quantum))
	}
	reasons := make([]string, 0, len(s.ByReason))
	for r := range s.ByReason {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(&b, "\nplanner: reason %-22s %d", r, s.ByReason[r])
	}
	return b.String()
}
