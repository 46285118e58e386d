// Package health is the solver-health plane: it watches the per-solve
// anneal-quality stream the serving stack already produces (telemetry
// QualityObservation samples — chain-break rate, best-energy magnitude,
// read budgets — plus solve failures) and turns it into actionable verdicts.
//
// QuAMax's decode quality hinges on device physics that drift in production:
// ICE noise, chain-break rates and TTS all wander with temperature and
// calibration age (paper §5/§7; the hybrid-structures follow-up,
// arXiv:2010.00682, argues the classical side must watch and compensate for
// exactly this). The plane has three parts:
//
//   - Tracker: per-backend × per-class rolling quality baselines (EWMA plus a
//     windowed reference captured while the backend is healthy) feeding a
//     Page–Hinkley-style cumulative-deviation drift detector with hysteresis.
//     Each backend is scored Healthy / Degraded / Quarantined.
//   - Canary: fixed known-ground-state decode instances (brute-force Ising
//     anchors, ≤ qubo.MaxBruteForceN spins) that a quarantined backend must
//     solve correctly — repeatedly — to earn re-admission.
//   - BurnTracker: per-shard SLO burn rates (deadline-miss and BER-risk
//     budgets over a fast and a slow window) with multi-window alerting,
//     which the router folds into its shed decision.
//
// The scheduler (internal/sched) feeds the Tracker with backend attribution,
// skips Quarantined pool members, and runs the canary probes; Tracker.Samples
// and BurnTracker.Samples export both views as metrics.Sample series.
package health

import (
	"math"
	"sort"
	"sync"
	"time"

	"quamax/internal/metrics"
	"quamax/internal/telemetry"
)

// The drift detector's and the canary gate's settings.
const (
	// DefaultBaselineAlpha is the EWMA weight of the rolling baselines.
	DefaultBaselineAlpha = 0.05
	// DefaultWindowSize is the windowed-reference capacity per class.
	DefaultWindowSize = 32
	// DefaultMinWindow is the reference fill level below which the detector
	// stays disengaged (baselines still learn).
	DefaultMinWindow = 8
	// DefaultPHDelta is the Page–Hinkley drift allowance per observation —
	// the score decays by this much per in-control sample, which is what
	// gives the detector its hysteresis.
	DefaultPHDelta = 0.05
	// DefaultPHDegraded is the cumulative-deviation score at which a backend
	// turns Degraded.
	DefaultPHDegraded = 1.0
	// DefaultPHQuarantine is the score at which it turns Quarantined.
	DefaultPHQuarantine = 3.0
	// DefaultPHRecover is the score below which a Degraded backend recovers
	// to Healthy (the lower edge of the hysteresis band).
	DefaultPHRecover = 0.25
	// DefaultChainWeight scales the chain-break-rate deviation's score
	// contribution.
	DefaultChainWeight = 5.0
	// DefaultEnergyWeight scales the best-energy deviation's contribution.
	DefaultEnergyWeight = 1.0
	// DefaultFailureWeight is the score a solve failure contributes
	// directly.
	DefaultFailureWeight = 2.0
	// DefaultCanaryInterval spaces canary probes per quarantined backend.
	DefaultCanaryInterval = 100 * time.Millisecond
	// DefaultCanaryPasses is the consecutive-pass streak that re-admits.
	DefaultCanaryPasses = 3
)

// Config parameterizes a Tracker.
type Config struct {
	// Now overrides the clock (tests); defaults to time.Now.
	Now func() time.Time
}

// window is a bounded sample ring with summary stats over its contents —
// the "known-good" reference the drift detector compares against. It is
// only fed while its backend is Healthy, so a drifting device cannot drag
// its own reference along.
type window struct {
	buf  []float64
	next int
}

func (w *window) push(v float64) {
	if len(w.buf) < DefaultWindowSize {
		w.buf = append(w.buf, v)
		return
	}
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
}

func (w *window) n() int { return len(w.buf) }

// stats returns the window mean and half-spread (max−min)/2 — the tolerance
// band in-control samples are expected to stay inside.
func (w *window) stats() (mean, spread float64) {
	if len(w.buf) == 0 {
		return 0, 0
	}
	lo, hi, sum := w.buf[0], w.buf[0], 0.0
	for _, v := range w.buf {
		sum += v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return sum / float64(len(w.buf)), (hi - lo) / 2
}

// classBaseline is one backend×class cell: EWMA baselines plus the windowed
// reference of the two drift-scored quality signals.
type classBaseline struct {
	n               uint64
	cbrEWMA         float64 // chain breaks per read
	energyEWMA      float64 // |best energy|
	cbrWin, engyWin window
}

// backendState is the tracker's per-backend record: drift detector,
// cross-class reporting baselines, canary bookkeeping.
type backendState struct {
	state metrics.HealthState
	obs   uint64

	// Page–Hinkley cumulative deviation: cum accumulates score−δ, minCum
	// tracks its running minimum, and cum−minCum is the drift score.
	cum, minCum float64

	classes map[string]*classBaseline

	// Cross-class rolling baselines (reporting; scoring is per class).
	cbrEWMA, energyEWMA, failEWMA, readsEWMA float64

	canaryPass, canaryFail uint64
	canaryStreak           int
	lastCanary             time.Time
}

// Tracker scores each backend's anneal quality against its own history and
// runs the Healthy → Degraded → Quarantined state machine. All methods are
// safe for concurrent use and safe on a nil receiver (no-ops / Healthy).
type Tracker struct {
	now func() time.Time

	mu       sync.Mutex
	backends map[string]*backendState
}

// NewTracker builds a Tracker with the given configuration.
func NewTracker(cfg Config) *Tracker {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Tracker{now: cfg.Now, backends: make(map[string]*backendState)}
}

// get returns (creating if needed) the named backend's state. Caller holds mu.
func (t *Tracker) get(name string) *backendState {
	b, ok := t.backends[name]
	if !ok {
		b = &backendState{classes: make(map[string]*classBaseline)}
		t.backends[name] = b
	}
	return b
}

// ewma folds v into the running mean with the baseline alpha.
func ewma(mean *float64, v float64, n uint64) {
	if n <= 1 {
		*mean = v
		return
	}
	*mean += DefaultBaselineAlpha * (v - *mean)
}

// ObserveQuality feeds one solve's anneal-quality sample with backend
// attribution — the scheduler replays each completed solve's telemetry
// QualityObservation here. The sample updates the backend×class baselines
// and, once the class's windowed reference is filled, contributes a
// deviation score to the backend's drift detector.
func (t *Tracker) ObserveQuality(backend, class string, q telemetry.QualityObservation) {
	if t == nil {
		return
	}
	cbr := 0.0
	if q.Reads > 0 {
		cbr = float64(q.ChainBreaks) / float64(q.Reads)
	}
	absE := math.Abs(q.BestEnergy)
	if math.IsNaN(absE) || math.IsInf(absE, 0) {
		absE = 0
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.get(backend)
	b.obs++
	ewma(&b.cbrEWMA, cbr, b.obs)
	ewma(&b.energyEWMA, absE, b.obs)
	ewma(&b.readsEWMA, float64(q.Reads), b.obs)

	c, ok := b.classes[class]
	if !ok {
		c = &classBaseline{}
		b.classes[class] = c
	}
	c.n++
	ewma(&c.cbrEWMA, cbr, c.n)
	ewma(&c.energyEWMA, absE, c.n)

	score := 0.0
	if c.cbrWin.n() >= DefaultMinWindow {
		// Chain breaks: only an increase beyond the reference band is drift.
		mean, spread := c.cbrWin.stats()
		if dev := cbr - (mean + spread); dev > 0 {
			score += DefaultChainWeight * dev
		}
		// Best energy: any shift of |E| beyond the band is suspect — a sick
		// annealer's best energies collapse toward 0 (less optimal), an
		// ICE-biased one can also overshoot. Normalize by the reference mean
		// and clamp so one outlier cannot quarantine on its own.
		mean, spread = c.engyWin.stats()
		if dev := math.Abs(absE-mean) - spread; dev > 0 && mean > 0 {
			score += DefaultEnergyWeight * math.Min(dev/mean, 4)
		}
	}
	if b.state == metrics.HealthHealthy {
		// The reference only learns from a healthy device; freezing it on
		// degradation keeps the detector anchored to the known-good regime.
		c.cbrWin.push(cbr)
		c.engyWin.push(absE)
	}
	t.score(b, score)
}

// ObserveOutcome feeds one solve's terminal outcome: failures both move the
// failure-rate baseline and contribute DefaultFailureWeight directly to the
// drift score, so a crash-looping backend quarantines within a handful of
// solves even if it never returns a quality sample.
func (t *Tracker) ObserveOutcome(backend string, failed bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.get(backend)
	b.obs++
	f := 0.0
	if failed {
		f = 1
	}
	ewma(&b.failEWMA, f, b.obs)
	if failed {
		t.score(b, DefaultFailureWeight)
	}
}

// score runs one Page–Hinkley step and the state machine. Caller holds mu.
func (t *Tracker) score(b *backendState, x float64) {
	b.cum += x - DefaultPHDelta
	if b.cum < b.minCum {
		b.minCum = b.cum
	}
	s := b.cum - b.minCum
	switch {
	case s >= DefaultPHQuarantine && b.state != metrics.HealthQuarantined:
		b.state = metrics.HealthQuarantined
		b.canaryStreak = 0
	case s >= DefaultPHDegraded && b.state == metrics.HealthHealthy:
		b.state = metrics.HealthDegraded
	case s <= DefaultPHRecover && b.state == metrics.HealthDegraded:
		// Hysteresis: the score decays by DefaultPHDelta per in-control
		// sample, so recovery needs sustained good behavior, not one lucky
		// solve.
		b.state = metrics.HealthHealthy
	}
}

// State returns the backend's current verdict (Healthy for backends never
// observed, and on a nil tracker).
func (t *Tracker) State(backend string) metrics.HealthState {
	if t == nil {
		return metrics.HealthHealthy
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if b, ok := t.backends[backend]; ok {
		return b.state
	}
	return metrics.HealthHealthy
}

// Score returns the backend's current drift score (0 when unknown).
func (t *Tracker) Score(backend string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if b, ok := t.backends[backend]; ok {
		return b.cum - b.minCum
	}
	return 0
}

// CanaryDue reports whether a canary probe should run against the backend
// now, and — when it returns true — claims the probe slot, so concurrent
// workers never double-probe. Only quarantined backends are probed.
func (t *Tracker) CanaryDue(backend string) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.backends[backend]
	if !ok || b.state != metrics.HealthQuarantined {
		return false
	}
	now := t.now()
	if !b.lastCanary.IsZero() && now.Sub(b.lastCanary) < DefaultCanaryInterval {
		return false
	}
	b.lastCanary = now
	return true
}

// RecordCanary records one canary-probe outcome against a quarantined
// backend. DefaultCanaryPasses consecutive passes re-admit it: the verdict
// resets to Healthy and the drift detector restarts from zero (the frozen
// known-good reference windows are kept — they still describe the healthy
// regime the canaries just re-confirmed). Returns true when this call
// re-admitted the backend.
func (t *Tracker) RecordCanary(backend string, pass bool) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.backends[backend]
	if !ok || b.state != metrics.HealthQuarantined {
		return false
	}
	if !pass {
		b.canaryFail++
		b.canaryStreak = 0
		return false
	}
	b.canaryPass++
	b.canaryStreak++
	if b.canaryStreak < DefaultCanaryPasses {
		return false
	}
	b.state = metrics.HealthHealthy
	b.cum, b.minCum = 0, 0
	b.canaryStreak = 0
	return true
}

// AnyServing reports whether at least one of names is not quarantined — the
// scheduler's last-resort guard: when the whole pool is quarantined it keeps
// serving (a degraded answer beats none).
func (t *Tracker) AnyServing(names []string) bool {
	if t == nil {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range names {
		if b, ok := t.backends[n]; !ok || b.state != metrics.HealthQuarantined {
			return true
		}
	}
	return len(names) == 0
}

// Snapshot exports the per-backend health view in canonical (name-sorted)
// order. Safe on a nil tracker (returns nil).
func (t *Tracker) Snapshot() []metrics.BackendHealth {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]metrics.BackendHealth, 0, len(t.backends))
	for name, b := range t.backends {
		out = append(out, metrics.BackendHealth{
			Name:           name,
			State:          b.state,
			Score:          b.cum - b.minCum,
			Observations:   b.obs,
			ChainBreakEWMA: b.cbrEWMA,
			EnergyEWMA:     b.energyEWMA,
			FailureEWMA:    b.failEWMA,
			ReadsPerSolve:  b.readsEWMA,
			CanaryPass:     b.canaryPass,
			CanaryFail:     b.canaryFail,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Samples exports every backend's view (metrics.BackendHealth.Samples). Safe
// on a nil tracker (returns nil).
func (t *Tracker) Samples() []metrics.Sample {
	var out []metrics.Sample
	for _, b := range t.Snapshot() {
		out = append(out, b.Samples()...)
	}
	return out
}
