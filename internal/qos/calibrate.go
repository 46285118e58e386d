package qos

import (
	"fmt"
	"math"
	"sync"

	"quamax/internal/anneal"
	"quamax/internal/channel"
	"quamax/internal/chimera"
	"quamax/internal/core"
	"quamax/internal/detector"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/rng"
	"quamax/internal/softout"
)

// ClassSpec names one problem class of the calibration grid.
type ClassSpec struct {
	// Mod is the modulation; Nts the transmitter counts to fit; SNRsDB the
	// SNR grid per size.
	Mod    modulation.Modulation
	Nts    []int
	SNRsDB []float64
}

// CalibrationConfig controls a Calibrate run. The zero value is completed
// with the defaults noted per field.
type CalibrationConfig struct {
	// Classes is the fit grid (default: DefaultCalibrationClasses()).
	Classes []ClassSpec
	// Instances is the sample size per grid point (default 8). Statistics
	// are medians across instances, following the paper's Fix methodology
	// (§5.3.2).
	Instances int
	// MeasureReads is Na for each measurement run (default 200; larger
	// values resolve smaller p0).
	MeasureReads int
	// Reverse additionally fits the reverse-annealing operating mode.
	Reverse bool
	// Graph is the chip model (default chimera.DW2Q()); Machine the
	// simulator (default anneal.NewMachine()).
	Graph   *chimera.Graph
	Machine *anneal.Machine
	// Seed drives instance generation and the annealer (default 1).
	Seed int64
	// Logf receives per-point progress lines; nil silences them.
	Logf func(format string, args ...interface{})
}

// DefaultCalibrationClasses returns the serving-relevant fit grid: the
// paper's uplink classes (BPSK/QPSK up to large Nt, 16-QAM to the sizes the
// chip embeds) over the 5–30 dB SNR band of §5.4.
func DefaultCalibrationClasses() []ClassSpec {
	snrs := []float64{5, 10, 15, 20, 25, 30}
	return []ClassSpec{
		{Mod: modulation.BPSK, Nts: []int{4, 8, 16, 32, 48}, SNRsDB: snrs},
		{Mod: modulation.QPSK, Nts: []int{2, 4, 8, 16, 24}, SNRsDB: snrs},
		{Mod: modulation.QAM16, Nts: []int{2, 4, 8, 12}, SNRsDB: snrs},
	}
}

// classJF mirrors the Fix strategy's per-class chain strength (see
// experiments.ClassFix): higher-order modulations need stronger chains
// before the hardware rescale stops squeezing them.
func classJF(mod modulation.Modulation) float64 {
	switch mod {
	case modulation.QAM16:
		return 12
	case modulation.QAM64:
		return 16
	default:
		return 4
	}
}

// Calibrate fits a TTS table by measuring solution distributions on the
// simulated annealer — the same microbenchmark methodology as the Fig. 5–7
// TTS experiments (internal/experiments/tts.go), applied at finite SNR so
// the fit covers the serving regime. The run is deterministic given the
// config.
func Calibrate(cfg CalibrationConfig) (*Table, error) {
	if cfg.Classes == nil {
		cfg.Classes = DefaultCalibrationClasses()
	}
	if cfg.Instances <= 0 {
		cfg.Instances = 8
	}
	if cfg.MeasureReads <= 0 {
		cfg.MeasureReads = 200
	}
	if cfg.Graph == nil {
		cfg.Graph = chimera.DW2Q()
	}
	if cfg.Machine == nil {
		cfg.Machine = anneal.NewMachine()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}

	t := &Table{
		Note: fmt.Sprintf("calibrated: %d instances/point, %d reads/run, seed %d",
			cfg.Instances, cfg.MeasureReads, cfg.Seed),
	}
	src := rng.New(cfg.Seed)
	for _, class := range cfg.Classes {
		op := ClassOp{
			Mod: class.Mod.String(), JF: classJF(class.Mod),
			Ta: 1, Tp: 1, Sp: 0.35,
		}
		t.Ops = append(t.Ops, op)
		dec, err := core.New(core.Options{
			Graph:   cfg.Graph,
			Machine: cfg.Machine,
			JF:      op.JF, ImprovedRange: true,
			Params: anneal.Params{
				AnnealTimeMicros: op.Ta, PauseTimeMicros: op.Tp,
				PausePosition: op.Sp, NumAnneals: cfg.MeasureReads,
			},
		})
		if err != nil {
			return nil, fmt.Errorf("qos: calibrate %v: %w", class.Mod, err)
		}
		for _, nt := range class.Nts {
			for _, snr := range class.SNRsDB {
				pts, err := measurePoint(dec, class.Mod, nt, snr, cfg, src)
				if err != nil {
					return nil, fmt.Errorf("qos: calibrate %v nt=%d snr=%g: %w",
						class.Mod, nt, snr, err)
				}
				t.Points = append(t.Points, pts...)
				for _, p := range pts {
					logf("qos: fitted %s nt=%d snr=%gdB mode=%s p0=%.3f floor=%.2e spread=%.2e",
						p.Mod, p.Nt, p.SNRdB, p.Mode, p.P0, p.FloorBER, p.SpreadBER)
				}
			}
		}
	}
	return t, t.Validate()
}

// measurePoint measures one grid point: median-of-instances distribution
// statistics in forward (and optionally reverse) mode.
func measurePoint(dec *core.Decoder, mod modulation.Modulation, nt int, snrDB float64, cfg CalibrationConfig, src *rng.Source) ([]Point, error) {
	type acc struct{ p0s, floors, spreads []float64 }
	var fwd, rev acc
	for i := 0; i < cfg.Instances; i++ {
		in, err := mimo.Generate(src, mimo.Config{
			Mod: mod, Nt: nt, Nr: nt, Channel: channel.RandomPhase{}, SNRdB: snrDB,
		})
		if err != nil {
			return nil, err
		}
		req := core.Request{Mod: in.Mod, H: in.H, Y: in.Y, Truth: in}
		out, err := dec.Decode(req, core.Budget{}, src)
		if err != nil {
			return nil, err
		}
		p0, floor, spread := distStats(out.Distribution)
		fwd.p0s = append(fwd.p0s, p0)
		fwd.floors = append(fwd.floors, floor)
		fwd.spreads = append(fwd.spreads, spread)

		if cfg.Reverse {
			req.Reverse = true
			rout, err := dec.Decode(req, core.Budget{}, src)
			if err != nil {
				// Reverse needs a linear seed; a singular channel draw simply
				// contributes no reverse sample.
				continue
			}
			p0, floor, spread = distStats(rout.Distribution)
			rev.p0s = append(rev.p0s, p0)
			rev.floors = append(rev.floors, floor)
			rev.spreads = append(rev.spreads, spread)
		}
	}
	pts := []Point{{
		Mod: mod.String(), Nt: nt, SNRdB: snrDB, Mode: ModeForward,
		P0:       metrics.Median(fwd.p0s),
		FloorBER: metrics.Median(fwd.floors), SpreadBER: metrics.Median(fwd.spreads),
	}}
	if cfg.Reverse && len(rev.p0s) > 0 {
		pts = append(pts, Point{
			Mod: mod.String(), Nt: nt, SNRdB: snrDB, Mode: ModeReverse,
			P0:       metrics.Median(rev.p0s),
			FloorBER: metrics.Median(rev.floors), SpreadBER: metrics.Median(rev.spreads),
		})
	}
	return pts, nil
}

// distStats extracts the planner model's ingredients from one measured
// solution distribution: the best-rank probability p0, the best-rank BER
// floor, and the occurrence-weighted mean BER of the remaining ranks.
func distStats(d *metrics.Distribution) (p0, floor, spread float64) {
	if d == nil || d.Total == 0 || len(d.Solutions) == 0 {
		return 0, 1, 0
	}
	best := d.Solutions[0]
	p0 = float64(best.Count) / float64(d.Total)
	floor = float64(best.BitErrors) / float64(d.N)
	rest := d.Total - best.Count
	if rest == 0 {
		return p0, floor, 0
	}
	var werr float64
	for _, s := range d.Solutions[1:] {
		werr += float64(s.Count) * float64(s.BitErrors) / float64(d.N)
	}
	spread = werr / float64(rest)
	return p0, floor, spread
}

// CertifyNodes is the tree-node budget of the certificate search admission
// runs ahead of the planner (EstimateInto; sched.Dispatch): a search
// that finishes inside it has proved its answer ML, and one that does not goes
// to the planner as before. It is fixed on sched's seeded corpus
// (TestStopRuleCorpus's certificate table): 8×8 QPSK at 15–30 dB certifies
// every hard decode at 10³ nodes and all but one precode at 10⁴, where a
// budget the corpus does not reach costs an exhausted search ≈ 0.1 ms. It is a
// constant, not a knob.
const CertifyNodes = 10_000

// Estimate is one received vector as admission reads it: the receive-SNR
// estimate and, when a search ran, its certificate.
type Estimate struct {
	// SNRdB is the receive SNR estimated from the vector's own data, and
	// Residual the zero-forcing decision's ML metric ‖y − H·v‖² (see
	// EstimateInto). OK is false when the channel is too
	// ill-conditioned to invert; nothing else is then set.
	SNRdB, Residual float64
	OK              bool
	// Nodes counts the tree nodes the certificate search visited (0 when it
	// did not run).
	Nodes int
	// Proved reports that the search finished inside its budget: Bits are
	// then the Gray bits of an ML decision and Metric its ‖y − H·v‖², and a
	// soft search's LLRs are the exact clamped max-log LLRs of the request's
	// spec, LLRSaturated of them at the clamp. All are unset otherwise.
	Proved       bool
	Bits         []byte
	Metric       float64
	LLRs         []float64
	LLRSaturated int
}

// scratch pools the sphere searches' working memory across every program:
// a scratch grows to the largest program it has served and is reused as is.
var scratch = sync.Pool{New: func() any { return new(detector.SphereScratch) }}

// EstimateInto reads one received vector through its channel's sphere
// program (detector.CompileSphere; core.Window.Sphere builds it once per
// coherence window). It estimates the receive SNR from the vector's own data
// — detect with zero-forcing off the program's triangle, rebuild the
// noiseless signal from the hard decisions, and compare signal to residual
// power — and, with certifyNodes > 0, runs the certificate search from that
// decision within that many tree nodes (detector.SphereProgram.Certify). A
// soft request (soft non-nil) is searched with its spec's clip radius, so a
// finished search also holds every bit's counter-hypothesis out to where its
// LLR clamps. At serving SNRs the ZF decisions are mostly correct, so the
// residual is dominated by noise; the estimate biases high at very low SNR,
// where the planner's below-fit-range guard takes over. The residual is the
// noise estimate the device tier's stop radius is sized from (StopRadius). A
// proved answer's Bits are appended to bits[:0] and its LLRs to llrs[:0] (a
// hard answer's LLRs are then llrs[:0], empty): where their capacity holds
// the answer, nothing allocates.
func EstimateInto(prog *detector.SphereProgram, y []complex128, certifyNodes int, soft *softout.Spec, bits []byte, llrs []float64) Estimate {
	s := scratch.Get().(*detector.SphereScratch)
	defer scratch.Put(s)
	var clip float64
	if soft != nil {
		if clip = soft.ClipRadius(); !(clip > 0) {
			certifyNodes = 0 // a spec no LLR can honor proves nothing
		}
	}
	c := prog.Certify(y, certifyNodes, clip, s)
	if !c.OK || c.Signal == 0 {
		return Estimate{Residual: c.Residual}
	}
	est := Estimate{Residual: c.Residual, OK: true, Nodes: c.Nodes, SNRdB: math.Inf(1)}
	if c.Residual > 0 {
		est.SNRdB = channel.SNRLinearToDB(c.Signal / c.Residual)
	}
	if c.Proved {
		est.Proved, est.Metric = true, c.Metric
		est.Bits, est.LLRs = prog.Mod().AppendDemapGrayVector(bits[:0], c.Symbols), llrs[:0]
		if soft != nil {
			est.LLRs, est.LLRSaturated = softout.AppendFromGaps(est.LLRs, est.Bits, c.Gaps, *soft)
		}
	}
	return est
}

// EstimateSNRdB is the one-shot SNR estimate of a channel seen once: it
// factors the channel, estimates, and discards the program.
func EstimateSNRdB(mod modulation.Modulation, h *linalg.Mat, y []complex128) (float64, bool) {
	est := EstimateInto(detector.CompileSphere(mod, h), y, 0, nil, nil, nil)
	return est.SNRdB, est.OK
}
