package metrics

import "strconv"

// HealthState classifies one backend on the solver-health plane
// (internal/health): Healthy serves normally, Degraded serves under watch
// (its drift score crossed the detection threshold), Quarantined is pulled
// from regular dispatch and earns re-admission through canary probes.
type HealthState uint8

// Backend health states, ordered by severity. The numeric values are what
// the quamax_backend_health gauge exports: never renumber.
const (
	HealthHealthy HealthState = iota
	HealthDegraded
	HealthQuarantined
)

// String renders the state for `quamax -top` and log output.
func (s HealthState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthQuarantined:
		return "quarantined"
	}
	return "unknown"
}

// BackendHealth is one backend's point-in-time view on the health plane:
// its drift-detector verdict plus the rolling baselines the verdict was
// scored against.
type BackendHealth struct {
	// Name is the backend's descriptor name (Capabilities.Name).
	Name string
	// State is the drift detector's verdict.
	State HealthState
	// Score is the current Page–Hinkley cumulative-deviation statistic:
	// ~0 while the backend tracks its own baselines, growing with sustained
	// quality drift. Compare against the tracker's configured thresholds.
	Score float64
	// Observations counts the quality samples scored so far.
	Observations uint64
	// ChainBreakEWMA is the rolling per-read chain-break rate baseline.
	ChainBreakEWMA float64
	// EnergyEWMA is the rolling |best energy| baseline (class-normalized).
	EnergyEWMA float64
	// FailureEWMA is the rolling solve-failure rate.
	FailureEWMA float64
	// ReadsPerSolve is the rolling read budget per solve — the TTS proxy:
	// a planner compensating a sick device shows up here before BER does.
	ReadsPerSolve float64
	// CanaryPass and CanaryFail count canary-probe outcomes while the
	// backend was quarantined (cumulative over its lifetime).
	CanaryPass, CanaryFail uint64
}

// Samples exports the view as series labelled backend=Name. This is the one
// place a BackendHealth field becomes an exported metric.
func (b BackendHealth) Samples() []Sample {
	l := Label{"backend", b.Name}
	const canary = "Canary probe outcomes per backend."
	return []Sample{
		Gauge("quamax_backend_health", "Backend health state: 0 healthy, 1 degraded, 2 quarantined.", float64(b.State), l),
		Gauge("quamax_backend_health_score", "Page-Hinkley drift score per backend.", b.Score, l),
		Counter("quamax_backend_health_observations_total", "Quality samples scored per backend.", float64(b.Observations), l),
		Gauge("quamax_backend_chain_break_ewma", "Rolling per-read chain-break rate baseline per backend.", b.ChainBreakEWMA, l),
		Gauge("quamax_backend_energy_ewma", "Rolling class-normalized |best energy| baseline per backend.", b.EnergyEWMA, l),
		Gauge("quamax_backend_failure_ewma", "Rolling solve-failure rate per backend.", b.FailureEWMA, l),
		Gauge("quamax_backend_reads_per_solve", "Rolling read budget per solve per backend.", b.ReadsPerSolve, l),
		Counter("quamax_backend_canary_total", canary, float64(b.CanaryPass), l, Label{"result", "pass"}),
		Counter("quamax_backend_canary_total", canary, float64(b.CanaryFail), l, Label{"result", "fail"}),
	}
}

// ShardBurn is one shard's SLO burn-rate view: deadline-miss and BER-proxy
// budget consumption over a fast and a slow window (Google-SRE-style
// multi-window burn alerting).
type ShardBurn struct {
	// FastMissRate and SlowMissRate are the deadline-miss rates over the
	// fast and slow EWMA windows.
	FastMissRate, SlowMissRate float64
	// FastBERRate and SlowBERRate are the BER-risk event rates (soft
	// saturation or planner denial of a target-carrying request) over the
	// same two windows.
	FastBERRate, SlowBERRate float64
	// Observed counts the requests observed.
	Observed uint64
	// Alerting reports the multi-window verdict: both windows burning
	// faster than budget.
	Alerting bool
}

// Samples exports the view as series labelled shard=<index>. This is the one
// place a ShardBurn field becomes an exported metric.
func (b ShardBurn) Samples(shard int) []Sample {
	l := Label{"shard", strconv.Itoa(shard)}
	const burn = "Per-shard SLO burn rate (raw event rate) by budget and window."
	rate := func(v float64, slo, window string) Sample {
		return Gauge("quamax_slo_burn_rate", burn, v, l, Label{"slo", slo}, Label{"window", window})
	}
	alerting := 0.0
	if b.Alerting {
		alerting = 1
	}
	return []Sample{
		rate(b.FastMissRate, "miss", "fast"),
		rate(b.SlowMissRate, "miss", "slow"),
		rate(b.FastBERRate, "ber", "fast"),
		rate(b.SlowBERRate, "ber", "slow"),
		Gauge("quamax_slo_alerting", "Multi-window burn-rate alert per shard (1 = shedding-eligible).", alerting, l),
		Counter("quamax_slo_burn_samples_total", "Requests the burn tracker observed per shard.", float64(b.Observed), l),
	}
}
