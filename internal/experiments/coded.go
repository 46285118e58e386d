package experiments

import (
	"fmt"
	"time"

	"quamax/internal/channel"
	"quamax/internal/coding"
	"quamax/internal/core"
	"quamax/internal/detector"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/modulation"
	"quamax/internal/ofdm"
	"quamax/internal/rng"
)

// CodedConfig drives the coded-frame extension experiment: instead of the
// paper's analytic FER = 1−(1−BER)^bits, frames are SIMULATED through the
// full receive chain (§5.3.3's assumption made concrete): convolutional
// code + interleaver + per-subcarrier detection with pilot-estimated CSI.
type CodedConfig struct {
	Users, Antennas int
	Subcarriers     int
	Symbols         int
	SNRs            []float64
	Frames          int
	Anneals         int
	Seed            int64
}

// CodedQuick is the bench-scale preset.
func CodedQuick() CodedConfig {
	return CodedConfig{
		Users: 4, Antennas: 4,
		Subcarriers: 6, Symbols: 2,
		SNRs:    []float64{10, 14, 18},
		Frames:  8,
		Anneals: 60,
		Seed:    17,
	}
}

// CodedFull widens the statistics.
func CodedFull() CodedConfig {
	cfg := CodedQuick()
	cfg.Subcarriers = 12
	cfg.Symbols = 4
	cfg.Frames = 50
	cfg.Anneals = 200
	return cfg
}

// Coded measures simulated coded FER for QuAMax, the sphere decoder, and
// zero-forcing front ends, plus the paper's analytic FER from the measured
// raw BER for comparison.
func Coded(e *Env, cfg CodedConfig) (*Table, error) {
	mod := modulation.QPSK
	t := &Table{
		Title: fmt.Sprintf("Extension: simulated coded FER (QPSK %dx%d, K=7 r=1/2 + interleaver, estimated CSI)", cfg.Users, cfg.Antennas),
		Columns: []Column{
			col("SNR(dB)", "%g"), col("front end", "%v"), colBER("raw BER"), col("coded FER", "%.3f"),
			col("analytic FER(raw)", "%.3f"), colBER("post-FEC BER"),
		},
		Notes: []string{
			fmt.Sprintf("%d frames of %d subcarriers x %d symbols; analytic column applies the paper's 1-(1-BER)^bits to the measured raw BER", cfg.Frames, cfg.Subcarriers, cfg.Symbols),
			"expected: coding turns ML-grade raw BER into clean frames while ZF's error floor defeats the code",
		},
	}

	fp := ClassFix(mod, cfg.Anneals)
	dec, err := e.decoder(fp.JF, fp.Improved, fp.Params, false)
	if err != nil {
		return nil, err
	}
	qsrc := rng.New(cfg.Seed + 999)
	quamaxDetector := func(h *linalg.Mat, y []complex128) ([]byte, error) {
		out, err := dec.Decode(core.Request{Mod: mod, H: h, Y: y}, core.Budget{}, qsrc)
		if err != nil {
			return nil, err
		}
		return out.Bits, nil
	}
	sphereDetector := func(h *linalg.Mat, y []complex128) ([]byte, error) {
		res, err := detector.SphereDecode(mod, h, y, detector.SphereOptions{})
		if err != nil {
			return nil, err
		}
		return res.Bits, nil
	}
	zfDetector := func(h *linalg.Mat, y []complex128) ([]byte, error) {
		res, err := detector.ZeroForcing(mod, h, y)
		if err != nil {
			return nil, err
		}
		return res.Bits, nil
	}

	fronts := []struct {
		name string
		det  ofdm.Detector
	}{
		{"QuAMax", quamaxDetector},
		{"Sphere(ML)", sphereDetector},
		{"ZF", zfDetector},
	}
	for _, snr := range cfg.SNRs {
		for _, f := range fronts {
			frame := ofdm.FrameConfig{
				Mod: mod, Nt: cfg.Users, Nr: cfg.Antennas,
				Subcarriers: cfg.Subcarriers, SymbolsPerFrame: cfg.Symbols,
				SNRdB: snr,
				Delay: channel.TappedDelayLine{NumTaps: 3, Decay: 0.7},
				Code:  coding.NewWiFiCode(),
			}
			src := rng.New(cfg.Seed + int64(snr*7))
			fer, rawBER, codedBER, err := ofdm.MeasureFER(src, frame, f.det, cfg.Frames)
			if err != nil {
				return nil, err
			}
			t.AddRow(snr, f.name, rawBER, fer, metrics.FER(rawBER, frame.DataBits()), codedBER)
		}
	}
	return t, nil
}

// SAConfig drives the QA-vs-classical-SA comparison (§6: QA performance
// could match "the most highly optimized simulated annealing code").
type SAConfig struct {
	BPSKUsers []int
	SNRdB     float64
	Instances int
	Anneals   int // QPU anneals and SA restarts (matched effort)
	SASweeps  int
	Seed      int64
}

// SAQuick is the bench-scale preset.
func SAQuick() SAConfig {
	return SAConfig{
		BPSKUsers: []int{24, 36, 48},
		SNRdB:     20,
		Instances: 4,
		Anneals:   100,
		SASweeps:  128,
		Seed:      18,
	}
}

// SAFull widens the statistics.
func SAFull() SAConfig {
	cfg := SAQuick()
	cfg.BPSKUsers = []int{24, 36, 48, 60}
	cfg.Instances = 20
	cfg.Anneals = 1000
	return cfg
}

// SAComparison pits the simulated QPU against logical-space classical SA at
// matched batch sizes, reporting BER and the classical CPU wall time.
func SAComparison(e *Env, cfg SAConfig) (*Table, error) {
	mod := modulation.BPSK
	t := &Table{
		Title: "Extension: QuAMax (QPU model) vs classical simulated annealing (logical problem, host CPU)",
		Columns: []Column{
			col("users", "%d"), colBER("QPU BER@Na"), colMicros("QPU time model"), colBER("SA BER"),
			colMicros("SA wall time").hostTime(),
		},
		Notes: []string{
			fmt.Sprintf("SA uses %d restarts x %d sweeps on the UNembedded problem; QPU runs %d anneals with the Fix parameters", cfg.Anneals, cfg.SASweeps, cfg.Anneals),
			"the QPU time model is Na*(Ta+Tp)/Pf (compute time only, per the paper's §5.2 convention); SA time is measured wall clock",
		},
	}
	for _, users := range cfg.BPSKUsers {
		src := rng.New(cfg.Seed + int64(users)*23)
		fp := ClassFix(mod, cfg.Anneals)
		var qpuBER, saBER []float64
		var qpuTime float64
		var saElapsed time.Duration
		sa := detector.NewClassicalSA(cfg.SASweeps, cfg.Anneals)
		for i := 0; i < cfg.Instances; i++ {
			in, err := genSquareInstance(src, mod, users, cfg.SNRdB)
			if err != nil {
				return nil, err
			}
			dist, wall, pf, err := e.decodeDist(in, fp, true, src)
			if err != nil {
				return nil, err
			}
			qpuBER = append(qpuBER, dist.ExpectedBER(cfg.Anneals))
			qpuTime = float64(cfg.Anneals) * wall / pf

			start := time.Now()
			res, err := sa.Decode(mod, in.H, in.Y, src)
			saElapsed += time.Since(start)
			if err != nil {
				return nil, err
			}
			saBER = append(saBER, in.BER(res.Bits))
		}
		t.AddRow(users, metrics.Median(qpuBER), qpuTime, metrics.Median(saBER),
			float64(saElapsed.Microseconds())/float64(cfg.Instances))
	}
	return t, nil
}
