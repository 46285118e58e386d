package anneal

// Calibration of the simulated annealer.
//
// The simulator has exactly three free constants, fixed once here and never
// tuned per experiment. They were chosen by a one-off sweep (run as a
// temporary test against three probe workloads) over
// SweepsPerMicrosecond ∈ {32, 64, 128}, BetaInitial ∈ {0.1 … 0.4},
// BetaFinal ∈ {6 … 10}:
//
//  1. a 16-spin ferromagnetic chain (domain-wall annealing sanity),
//  2. a 12-spin fully-connected Gaussian spin glass embedded on Chimera
//     (hard instance; also probes that the mid-anneal pause genuinely
//     raises success probability, the Fig. 7/8 mechanism),
//  3. a 12-user BPSK ML instance at 20 dB SNR embedded on Chimera
//     (representative easy workload; the DW2Q solves these near-always).
//
// Measured at the chosen point (64 sweeps/µs, β: 0.3 → 8):
// ferromagnet 36/50 ground states at Ta = 1 µs; spin glass P0 ≈ 2.3%
// without pause vs ≈ 4% with a 1 µs pause at sp = 0.35; MIMO instance
// 200/200. This puts 36-logical-qubit MIMO problems in the paper's Fig. 4
// success-probability regime while preserving the pause benefit and the
// hardness ordering (glass ≫ MIMO). Larger sweep budgets only raise
// absolute success rates; they do not change any reported shape.
//
// The constants calibrate the Markov chain, not the code that runs it. When
// the device reads moved onto the engine's incremental-field kernel
// (multispin.go) the chain stayed the same — spin order, Metropolis rule,
// per-anneal ICE, β schedule — so the constants did too;
// TestDeviceReadsMatchReferenceChain holds the engine to the old loop's
// statistics on these three probes.
const (
	// CalibratedSweepsPerMicrosecond converts the device's anneal/pause
	// durations into Metropolis sweep budgets (Ta = 1 µs ⇒ 64 sweeps).
	CalibratedSweepsPerMicrosecond = 64
	// CalibratedBetaInitial is the hot end of the geometric β ramp.
	CalibratedBetaInitial = 0.3
	// CalibratedBetaFinal is the cold end of the geometric β ramp.
	CalibratedBetaFinal = 8.0
)
