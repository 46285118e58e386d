// Package telemetry is the serving stack's observability plane: per-request
// trace spans through the scheduler pipeline (admit → plan → queue →
// gather/batch → compile-or-cache-hit → solve → respond), fixed-bucket
// log-scale latency histograms for every stage and for end-to-end deadline
// slack, and per-class anneal-quality telemetry (best-energy distribution,
// chain-break rate, LLR-saturation rate).
//
// The paper's case for QA-in-C-RAN rests on latency *distributions* (Fig. 10
// box plots, mean-vs-median TTB, §5.5 deadline behavior), not end-of-run
// counters; this package makes those distributions observable on a live pool.
// One Recorder instance is shared by sched.Scheduler, core.Decoder,
// qos.Planner, and fronthaul.Server; it exports three ways — Prometheus text
// + pprof over HTTP (Mux), a fronthaul stats frame (Snapshot.Samples), and
// structured JSON trace dumps of the sample set and the trace ring
// (BuildDump) that tools/benchjson ingests.
//
// Feeding discipline: every histogram has exactly one feeder so nothing is
// double-counted. The scheduler finishes each trace exactly once — at the
// same point it increments Completed/Failed — so the trace count reconciles
// exactly with PoolStats (Submitted == Completed+Failed == traces). StagePlan
// is fed by qos.Planner from inside Plan, and StageCompile by core.Decoder
// from inside Compile, so those two histograms also see work that never
// passes through a scheduler (direct library use, per-batch-item compiles);
// the per-request trace records the scheduler's own measurement of the same
// stages.
package telemetry

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"quamax/internal/metrics"
)

// Stage identifies one span of a request's life in the serving pipeline.
type Stage uint8

const (
	// StageAdmit is dispatch-entry bookkeeping up to the enqueue/fallback
	// decision, excluding planner time.
	StageAdmit Stage = iota
	// StagePlan is the QoS planner's admission/parameter decision.
	StagePlan
	// StageQueue is time spent waiting in the FIFO for a worker (or, for a
	// batch rider, until it was gathered into a run).
	StageQueue
	// StageGather is the batch-assembly span charged to the run's head job:
	// slot resolution plus coherent/compatible gathering.
	StageGather
	// StageCompile is channel compilation (or the cache-hit lookup) for
	// fingerprint-keyed requests.
	StageCompile
	// StageSolve is backend Solve/SolveBatch wall time.
	StageSolve
	// StageRespond is result delivery: solve completion to the requester
	// handoff.
	StageRespond
	// StageE2E is the whole request: dispatch entry to delivery.
	StageE2E
	// NumStages bounds the Stage enum.
	NumStages = int(StageE2E) + 1
)

var stageNames = [NumStages]string{
	"admit", "plan", "queue", "gather", "compile", "solve", "respond", "e2e",
}

// String returns the stage's lowercase wire/label name.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "stage" + strconv.Itoa(int(s))
}

// Class renders the per-class telemetry key for a modulation name and user
// count, e.g. "16qam/12".
func Class(mod string, users int) string {
	return mod + "/" + strconv.Itoa(users)
}

// Trace is one completed request's span record. Stage durations are in
// microseconds; zero means the stage did not occur (e.g. no gather for a
// fallback dispatch). The scheduler's stages partition E2E: admit + plan +
// queue + gather + compile(head-measured portion) + solve + respond ≈ e2e.
type Trace struct {
	// Seq is the recorder-assigned sequence number (1-based).
	Seq uint64 `json:"seq"`
	// Class is the problem class, Class(mod, users).
	Class string `json:"class"`
	// Backend names the backend that solved the request ("" if failed before
	// solving).
	Backend string `json:"backend,omitempty"`
	// Batched is the number of co-batched problems in the solving run (0 or
	// 1 for solo).
	Batched int `json:"batched,omitempty"`
	// CacheHit reports whether the compiled-channel cache served the request.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Soft reports a soft-output (LLR) request.
	Soft bool `json:"soft,omitempty"`
	// Failed reports the request returned an error.
	Failed bool `json:"failed,omitempty"`
	// Route names the way admission sent the request: "certified" (answered
	// at admission), "queue" (the pool), or the rule that sent it to the
	// classical fallback — "planner_denied", "cost_divert" or
	// "deadline_projected".
	Route string `json:"route,omitempty"`
	// Shard is the serving-pool index that handled the request when the
	// recorder is shared across a sharded router (0 for a single pool), so
	// queue and gather spans attribute per shard.
	Shard int `json:"shard,omitempty"`
	// StartMicros is the dispatch-entry time as microseconds since the
	// recorder was created.
	StartMicros float64 `json:"start_micros"`
	// Stages holds per-stage durations in microseconds, indexed by Stage.
	Stages [NumStages]float64 `json:"stages"`
	// DeadlineMicros is the request's relative deadline (0 = none);
	// SlackMicros = DeadlineMicros − e2e, negative on a miss.
	DeadlineMicros float64 `json:"deadline_micros,omitempty"`
	SlackMicros    float64 `json:"slack_micros,omitempty"`
	// ReadsPlanned and Reads are the solve's read budget (anneals, or SA
	// restarts) and the reads it ran; fewer than planned means the repeat
	// rule ended it early — on the worst-slack exemplars, why a slow solve
	// took the reads it did.
	ReadsPlanned int `json:"reads_planned,omitempty"`
	Reads        int `json:"reads,omitempty"`
	// CertifyNodes is the tree nodes admission's certificate search visited
	// (0 when none ran). A request it answered carries Backend "certificate";
	// any other ran out of its node budget and went on to the planner.
	CertifyNodes int `json:"certify_nodes,omitempty"`
}

// QualityObservation is one solve's anneal-quality sample.
type QualityObservation struct {
	// BestEnergy is the best (lowest) logical Ising energy observed. The
	// per-class histogram records its magnitude |E| (log buckets need a
	// nonnegative domain; QuAMax ground energies are negative).
	BestEnergy float64
	// Reads is the number of anneal reads taken; ChainBreaks the total
	// broken physical chains across those reads.
	Reads, ChainBreaks int
	// LLRBits is the number of soft bits emitted (0 for hard decodes);
	// LLRSaturated how many of them hit the clamp.
	LLRBits, LLRSaturated int
}

// QualityStats is the per-class anneal-quality aggregate.
type QualityStats struct {
	// Solves counts quality observations; Reads/ChainBreaks total the
	// per-solve samples, so ChainBreaks/Reads is the chain-break rate.
	Solves      uint64
	Reads       uint64
	ChainBreaks uint64
	// LLRBits/LLRSaturated give the LLR-saturation rate for soft decodes.
	LLRBits      uint64
	LLRSaturated uint64
	// BestEnergy is the distribution of |best energy| per solve.
	BestEnergy metrics.Hist
}

type qualityCell struct {
	solves, reads, chainBreaks atomic.Uint64
	llrBits, llrSaturated      atomic.Uint64
	bestEnergy                 Histogram
}

// DefaultRingSize is the trace ring capacity: older traces are overwritten,
// histograms and counters never drop.
const DefaultRingSize = 4096

// Config parameterizes a Recorder.
type Config struct {
	// Now overrides the clock (tests); defaults to time.Now.
	Now func() time.Time
}

// Recorder is the shared telemetry sink. All Observe* methods and
// FinishTrace are safe for concurrent use; histogram updates are lock-free
// and FinishTrace takes one short mutex for the trace ring.
type Recorder struct {
	now   func() time.Time
	start time.Time

	stages      [NumStages]Histogram
	wire        Histogram
	slackMet    Histogram
	slackMissed Histogram

	compileHits   atomic.Uint64
	compileMisses atomic.Uint64
	finished      atomic.Uint64
	failed        atomic.Uint64

	qmu     sync.Mutex
	quality map[string]*qualityCell

	ringMu  sync.Mutex
	ring    []Trace
	ringSeq uint64 // total traces ever finished (next Seq)

	// Exemplar pinning (guarded by ringMu; see exemplar.go).
	exCur    []Trace // current window's worst-N, score-ascending
	exPinned []Trace // last completed window's worst-N
}

// New returns a Recorder with the given configuration.
func New(cfg Config) *Recorder {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Recorder{
		now:     cfg.Now,
		start:   cfg.Now(),
		quality: make(map[string]*qualityCell),
	}
}

// Now returns the recorder's clock reading (the scheduler shares it so spans
// and uptime agree under test clocks).
func (r *Recorder) Now() time.Time { return r.now() }

// SinceStartMicros converts an absolute time to microseconds since the
// recorder was created.
func (r *Recorder) SinceStartMicros(t time.Time) float64 {
	return float64(t.Sub(r.start)) / float64(time.Microsecond)
}

// FinishTrace records one completed request: it assigns the sequence number,
// appends the trace to the ring, and feeds the stage histograms (all stages
// except plan and compile, which their owning components feed — see the
// package comment) plus the deadline-slack histograms. It must be called
// exactly once per terminal request so the span count reconciles with
// PoolStats counters. Safe on a nil receiver (no-op).
func (r *Recorder) FinishTrace(t Trace) {
	if r == nil {
		return
	}
	for s := 0; s < NumStages; s++ {
		switch Stage(s) {
		case StagePlan, StageCompile:
			continue // fed by qos.Planner / core.Decoder
		}
		if d := t.Stages[s]; d > 0 || (Stage(s) == StageE2E) {
			r.stages[s].Observe(d)
		}
	}
	if t.DeadlineMicros > 0 {
		if t.SlackMicros >= 0 {
			r.slackMet.Observe(t.SlackMicros)
		} else {
			r.slackMissed.Observe(-t.SlackMicros)
		}
	}
	if t.Failed {
		r.failed.Add(1)
	} else {
		r.finished.Add(1)
	}
	r.ringMu.Lock()
	r.ringSeq++
	t.Seq = r.ringSeq
	if len(r.ring) < DefaultRingSize {
		r.ring = append(r.ring, t)
	} else {
		r.ring[(t.Seq-1)%DefaultRingSize] = t
	}
	r.pinExemplarLocked(t)
	r.ringMu.Unlock()
}

// ObserveStage feeds one stage histogram directly — used by the components
// that own StagePlan (qos.Planner) and StageCompile (core.Decoder), and
// available for ad-hoc spans. Safe on a nil receiver.
func (r *Recorder) ObserveStage(s Stage, micros float64) {
	if r == nil || int(s) >= NumStages {
		return
	}
	r.stages[s].Observe(micros)
}

// ObserveCompile records one channel compilation (or cache hit) by
// core.Decoder: the duration feeds StageCompile and the hit/miss counters.
// Safe on a nil receiver.
func (r *Recorder) ObserveCompile(micros float64, hit bool) {
	if r == nil {
		return
	}
	r.stages[StageCompile].Observe(micros)
	if hit {
		r.compileHits.Add(1)
	} else {
		r.compileMisses.Add(1)
	}
}

// ObserveWire records one fronthaul request's server-side wall time (frame
// decoded → response written). Safe on a nil receiver.
func (r *Recorder) ObserveWire(micros float64) {
	if r == nil {
		return
	}
	r.wire.Observe(micros)
}

// ObserveQuality records one solve's anneal-quality sample under its class.
// Safe on a nil receiver.
func (r *Recorder) ObserveQuality(class string, q QualityObservation) {
	if r == nil {
		return
	}
	r.qmu.Lock()
	cell, ok := r.quality[class]
	if !ok {
		cell = &qualityCell{}
		r.quality[class] = cell
	}
	r.qmu.Unlock()
	cell.solves.Add(1)
	cell.reads.Add(uint64(max(q.Reads, 0)))
	cell.chainBreaks.Add(uint64(max(q.ChainBreaks, 0)))
	cell.llrBits.Add(uint64(max(q.LLRBits, 0)))
	cell.llrSaturated.Add(uint64(max(q.LLRSaturated, 0)))
	cell.bestEnergy.Observe(math.Abs(q.BestEnergy))
}

// Traces returns a copy of the retained trace ring in completion order
// (oldest first). Safe on a nil receiver (returns nil).
func (r *Recorder) Traces() []Trace {
	if r == nil {
		return nil
	}
	r.ringMu.Lock()
	defer r.ringMu.Unlock()
	out := make([]Trace, 0, len(r.ring))
	if r.ringSeq > uint64(len(r.ring)) {
		// Ring has wrapped: oldest entry sits just past the newest.
		head := int(r.ringSeq % DefaultRingSize)
		out = append(out, r.ring[head:]...)
		out = append(out, r.ring[:head]...)
		return out
	}
	return append(out, r.ring...)
}

// TraceCount returns the total number of traces ever finished (including
// ones the ring has since overwritten). Safe on a nil receiver.
func (r *Recorder) TraceCount() uint64 {
	if r == nil {
		return 0
	}
	r.ringMu.Lock()
	defer r.ringMu.Unlock()
	return r.ringSeq
}

// Snapshot is the aggregate view of a Recorder: the in-process API, and
// (through Samples) what the exporters and the trace dump carry.
type Snapshot struct {
	// UptimeMicros is time since the recorder was created.
	UptimeMicros float64
	// Finished and Failed count finished traces by outcome; Traces is their
	// sum (total spans ever recorded).
	Finished uint64
	Failed   uint64
	Traces   uint64
	// CompileHits/CompileMisses count ObserveCompile outcomes.
	CompileHits   uint64
	CompileMisses uint64
	// Stages holds one latency histogram per pipeline Stage (index = Stage).
	Stages [NumStages]metrics.Hist
	// Wire is the fronthaul server-side request wall time.
	Wire metrics.Hist
	// SlackMet holds deadline slack for on-time requests; SlackMissed holds
	// |slack| (lateness) for missed ones. Their counts give the miss rate
	// over deadline-bearing requests.
	SlackMet    metrics.Hist
	SlackMissed metrics.Hist
	// Quality maps class → anneal-quality aggregate.
	Quality map[string]QualityStats
}

// Snapshot captures the recorder's aggregate state. Safe on a nil receiver
// (returns nil).
func (r *Recorder) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		UptimeMicros:  r.SinceStartMicros(r.now()),
		Finished:      r.finished.Load(),
		Failed:        r.failed.Load(),
		CompileHits:   r.compileHits.Load(),
		CompileMisses: r.compileMisses.Load(),
		Wire:          r.wire.Snapshot(),
		SlackMet:      r.slackMet.Snapshot(),
		SlackMissed:   r.slackMissed.Snapshot(),
	}
	s.Traces = s.Finished + s.Failed
	for i := range s.Stages {
		s.Stages[i] = r.stages[i].Snapshot()
	}
	r.qmu.Lock()
	classes := make(map[string]*qualityCell, len(r.quality))
	for k, v := range r.quality {
		classes[k] = v
	}
	r.qmu.Unlock()
	if len(classes) > 0 {
		s.Quality = make(map[string]QualityStats, len(classes))
		for k, c := range classes {
			s.Quality[k] = QualityStats{
				Solves:       c.solves.Load(),
				Reads:        c.reads.Load(),
				ChainBreaks:  c.chainBreaks.Load(),
				LLRBits:      c.llrBits.Load(),
				LLRSaturated: c.llrSaturated.Load(),
				BestEnergy:   c.bestEnergy.Snapshot(),
			}
		}
	}
	return s
}

// Samples exports the snapshot as series: trace and compile-cache counters,
// one latency histogram per stage, the wire and deadline-slack histograms, and
// the per-class anneal-quality aggregates. This is the one place a Snapshot
// field becomes an exported metric. Safe on a nil receiver (returns nil).
func (s *Snapshot) Samples() []metrics.Sample {
	if s == nil {
		return nil
	}
	l := func(k, v string) metrics.Label { return metrics.Label{Key: k, Value: v} }
	const traces, compiles = "Requests traced to completion, by outcome.", "Channel compilations by cache outcome."
	const slack = "Deadline slack (met) or lateness (missed) in microseconds."
	out := []metrics.Sample{
		metrics.Counter("quamax_traces_finished_total", traces, float64(s.Finished), l("outcome", "ok")),
		metrics.Counter("quamax_traces_finished_total", traces, float64(s.Failed), l("outcome", "failed")),
		metrics.Counter("quamax_compile_cache_total", compiles, float64(s.CompileHits), l("result", "hit")),
		metrics.Counter("quamax_compile_cache_total", compiles, float64(s.CompileMisses), l("result", "miss")),
		metrics.Histogram("quamax_fronthaul_wire_micros", "Server-side fronthaul request wall time in microseconds.", s.Wire),
		metrics.Histogram("quamax_deadline_slack_micros", slack, s.SlackMet, l("outcome", "met")),
		metrics.Histogram("quamax_deadline_slack_micros", slack, s.SlackMissed, l("outcome", "missed")),
	}
	for i, h := range s.Stages {
		out = append(out, metrics.Histogram("quamax_stage_latency_micros", "Per-stage request latency in microseconds.", h, l("stage", Stage(i).String())))
	}
	for c, q := range s.Quality {
		class := l("class", c)
		out = append(out,
			metrics.Counter("quamax_quality_solves_total", "Anneal solves observed per class.", float64(q.Solves), class),
			metrics.Counter("quamax_quality_reads_total", "Anneal reads taken per class.", float64(q.Reads), class),
			metrics.Counter("quamax_quality_chain_breaks_total", "Broken embedding chains per class.", float64(q.ChainBreaks), class),
			metrics.Counter("quamax_quality_llr_bits_total", "Soft bits emitted per class.", float64(q.LLRBits), class),
			metrics.Counter("quamax_quality_llr_saturated_total", "Soft bits that hit the LLR clamp per class.", float64(q.LLRSaturated), class),
			metrics.Histogram("quamax_quality_best_energy", "Distribution of |best Ising energy| per solve.", q.BestEnergy, class))
	}
	return out
}
