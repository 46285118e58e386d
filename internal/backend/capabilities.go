package backend

import "math"

// Features is a bitmask of optional solver abilities a backend declares in
// its Capabilities descriptor. No dispatch path reads it: it stays because the
// serving benchmark's stub backend (bench/stubs.go) declares FeatureSoft.
type Features uint32

// FeatureSoft marks backends that can answer Problem.Soft requests with
// per-bit LLRs (possibly saturated, for single-solution solvers).
const FeatureSoft Features = 1

// CostModel prices a backend's compute, the per-solve economics Kasi et al.
// (arXiv:2109.01465) argue decide annealer viability in NextG data centers.
// Spend is charged as a marginal rate on device occupancy; energy is drawn at
// a constant device power while solving.
type CostModel struct {
	// MicroUSDPerDeviceSecond is the marginal rate on device occupancy, in
	// micro-dollars per device-second.
	MicroUSDPerDeviceSecond float64
	// PowerWatts is the device's draw while solving (for the annealer this
	// is dominated by the cryostat, so it is charged against occupancy, not
	// against the µs-scale anneal itself).
	PowerWatts float64
}

// DefaultQPUCostModel prices a leased quantum annealer: cloud QPU access at
// roughly $2000 per device-hour (≈ 555,555 µUSD per device-second) and a
// 25 kW cryostat+control-plane wall draw, the operating point of the
// feasibility analysis in Kasi et al.
var DefaultQPUCostModel = CostModel{
	MicroUSDPerDeviceSecond: 555_555,
	PowerWatts:              25_000,
}

// DefaultClassicalCostModel prices one conventional CPU core: about
// $0.05 per core-hour (≈ 13.9 µUSD per device-second) and a 15 W share of
// socket, DRAM and cooling.
var DefaultClassicalCostModel = CostModel{
	MicroUSDPerDeviceSecond: 13.9,
	PowerWatts:              15,
}

// Capabilities is a backend's self-description: identity, latency model,
// per-solve economics, batch geometry and feature set. It replaces the old
// ad-hoc Name()/EstimateMicros() surface — every dispatch decision (deadline
// projection, cost-aware routing, stats attribution) reads this descriptor,
// so no caller outside this package constructs backend identity by hand.
type Capabilities struct {
	// Name identifies the backend in results and pool stats.
	Name string
	// Latency predicts the compute latency of one Solve of p in µs — the
	// quantity the scheduler's deadline-aware dispatch sums into projected
	// queue waits. For the annealer this is modeled device time; classical
	// backends use cost models or measured moving averages. Callers should
	// go through PredictMicros, which guards a nil hook.
	Latency func(p *Problem) float64
	// Cost prices this backend's solves; see CostModel.
	Cost CostModel
	// MaxBatchSlots bounds how many problems one device run can carry (1 =
	// no cross-request batching). No dispatch path reads it — per-shape
	// capacity comes from BatchBackend.BatchSlots — and no backend of this
	// package sets it: it stays because bench/stubs.go sets it.
	MaxBatchSlots int
	// Features declares the solver's optional abilities; like MaxBatchSlots,
	// only bench/stubs.go sets it.
	Features Features
}

// PredictMicros predicts the compute latency of one Solve of p through the
// descriptor's latency hook (0 when no hook is set).
func (c *Capabilities) PredictMicros(p *Problem) float64 {
	if c == nil || c.Latency == nil {
		return 0
	}
	return c.Latency(p)
}

// SpendMicroUSD prices computeMicros of device occupancy on this backend at
// the marginal occupancy rate. Non-finite or negative occupancy (a failed
// measurement) charges nothing, so accounting counters never absorb NaN.
func (c *Capabilities) SpendMicroUSD(computeMicros float64) float64 {
	if c == nil || math.IsNaN(computeMicros) || math.IsInf(computeMicros, 0) || computeMicros <= 0 {
		return 0
	}
	spend := c.Cost.MicroUSDPerDeviceSecond * computeMicros / 1e6
	if math.IsNaN(spend) || math.IsInf(spend, 0) || spend < 0 {
		return 0
	}
	return spend
}

// EnergyMilliJ converts computeMicros of occupancy into millijoules at the
// descriptor's device power, with the same non-finite guards as
// SpendMicroUSD.
func (c *Capabilities) EnergyMilliJ(computeMicros float64) float64 {
	if c == nil || math.IsNaN(computeMicros) || math.IsInf(computeMicros, 0) || computeMicros <= 0 {
		return 0
	}
	e := c.Cost.PowerWatts * computeMicros / 1e3
	if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
		return 0
	}
	return e
}
