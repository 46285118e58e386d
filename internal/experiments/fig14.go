package experiments

import (
	"fmt"
	"time"

	"quamax/internal/detector"
	"quamax/internal/metrics"
	"quamax/internal/rng"
)

// Fig14Config drives the zero-forcing comparison (paper Fig. 14): at poor
// SNR and Nt = Nr, measure the zero-forcing decoder's BER and processing
// time, then the time QuAMax needs to reach the same (or better) BER.
//
// The paper infers ZF processing time from BigStation's single-core
// numbers; we measure our own zero-forcing implementation's wall time on
// the host CPU (same role: a concrete classical baseline) and report both
// the measurement and the BER floor.
type Fig14Config struct {
	BPSKUsers []int
	QPSKUsers []int
	SNRdB     float64
	Instances int
	Anneals   int
	Seed      int64
}

// Fig14Quick is the bench-scale preset.
func Fig14Quick() Fig14Config {
	return Fig14Config{
		BPSKUsers: []int{36, 48, 60},
		QPSKUsers: []int{12, 14, 16},
		SNRdB:     10,
		Instances: 6,
		Anneals:   200,
		Seed:      14,
	}
}

// Fig14Full widens the statistics.
func Fig14Full() Fig14Config {
	cfg := Fig14Quick()
	cfg.Instances = 50
	cfg.Anneals = 2000
	return cfg
}

// Fig14 compares QuAMax TTB against the zero-forcing baseline.
func Fig14(e *Env, cfg Fig14Config) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Figure 14: QuAMax vs zero-forcing at %g dB SNR (Nt=Nr)", cfg.SNRdB),
		Columns: []Column{
			col("mod", "%v"), col("users", "%d"), colBER("ZF BER"), colMicros("ZF time").hostTime(),
			colMicros("QuAMax TTB to ZF BER"), col("speedup", "%.0fx").hostTime(),
		},
		Notes: []string{
			"ZF time is the measured wall time of this repository's zero-forcing (pseudo-inverse + slice) per channel use",
			"paper shape: ZF hits a BER floor at Nt=Nr; QuAMax reaches that BER 10-1000x faster (paper)",
		},
	}
	for mod, users := range eachClass(bpskQPSK(cfg.BPSKUsers, cfg.QPSKUsers)) {
		src := rng.New(cfg.Seed + int64(users)*13 + int64(mod))
		var (
			zfErrs, zfBits int
			zfElapsed      time.Duration
			ttbs           []float64
		)
		for i := 0; i < cfg.Instances; i++ {
			in, err := genSquareInstance(src, mod, users, cfg.SNRdB)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			zf, err := detector.ZeroForcing(mod, in.H, in.Y)
			zfElapsed += time.Since(start)
			if err != nil {
				continue // singular draw: skip (rare for random phase)
			}
			zfErrs += in.BitErrors(zf.Bits)
			zfBits += len(in.TxBits)

			d, wall, pf, err := e.decodeDist(in, DefaultFix(cfg.Anneals), true, src)
			if err != nil {
				return nil, err
			}
			// Time for QuAMax to reach this instance's ZF BER (at least
			// one anneal).
			ttbs = append(ttbs, d.TTB(in.BER(zf.Bits), wall, pf))
		}
		if zfBits == 0 {
			continue
		}
		zfMicros := float64(zfElapsed.Microseconds()) / float64(cfg.Instances)
		qm := metrics.Median(ttbs)
		t.AddRow(mod, users, float64(zfErrs)/float64(zfBits), zfMicros, qm, zfMicros/qm)
	}
	return t, nil
}
