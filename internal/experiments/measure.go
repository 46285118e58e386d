package experiments

import (
	"fmt"
	"iter"
	"math"

	"quamax/internal/anneal"
	"quamax/internal/channel"
	"quamax/internal/detector"
	"quamax/internal/metrics"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/rng"
)

// The measurements the figures share: instance draws, the (modulation, users)
// class sweep, TTS per instance, and one instance measured at the Fix
// operating point and under the Opt oracle.

// groundTol is the energy tolerance for counting a sample as the ground
// state of a noise-free instance.
const groundTol = 1e-6

// genSquareInstance draws one Nt=Nr random-phase instance (paper §5.3,
// "unit fixed channel gain ... random-phase channel").
func genSquareInstance(src *rng.Source, mod modulation.Modulation, users int, snrDB float64) (*mimo.Instance, error) {
	return mimo.Generate(src, mimo.Config{
		Mod: mod, Nt: users, Nr: users, Channel: channel.RandomPhase{}, SNRdB: snrDB,
	})
}

// noiseFreeInstances draws `count` instances of users×users mod at infinite
// SNR, so the ground energy is exactly 0 and P0 is measured directly.
func noiseFreeInstances(mod modulation.Modulation, users, count int, seed int64) ([]*mimo.Instance, error) {
	src := rng.New(seed)
	out := make([]*mimo.Instance, 0, count)
	for i := 0; i < count; i++ {
		in, err := genSquareInstance(src, mod, users, math.Inf(1))
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// class is one modulation with the user counts an experiment sweeps.
type class struct {
	mod   modulation.Modulation
	users []int
}

// bpskQPSK is the two-class sweep of the experiments configured by a BPSK
// and a QPSK user list.
func bpskQPSK(bpsk, qpsk []int) []class {
	return []class{{modulation.BPSK, bpsk}, {modulation.QPSK, qpsk}}
}

// eachClass iterates the (modulation, users) pairs of the classes in order.
func eachClass(classes []class) iter.Seq2[modulation.Modulation, int] {
	return func(yield func(modulation.Modulation, int) bool) {
		for _, c := range classes {
			for _, users := range c.users {
				if !yield(c.mod, users) {
					return
				}
			}
		}
	}
}

// configName labels a square configuration the way the paper does.
func configName(mod modulation.Modulation, users int) string {
	return fmt.Sprintf("%v %dx%d", mod, users, users)
}

// rangeName labels the coupler dynamic range.
func rangeName(improved bool) string {
	if improved {
		return "improved"
	}
	return "standard"
}

// paramsTa returns pause-free annealer params at the given anneal time.
func paramsTa(ta float64, na int) anneal.Params {
	return anneal.Params{AnnealTimeMicros: ta, NumAnneals: na}
}

// paramsPause returns paused annealer params.
func paramsPause(ta, tp, sp float64, na int) anneal.Params {
	return anneal.Params{AnnealTimeMicros: ta, PauseTimeMicros: tp, PausePosition: sp, NumAnneals: na}
}

// ttsPerInstance measures TTS(0.99) for each instance under the given
// parameters. The per-anneal wall time includes the pause.
func (e *Env) ttsPerInstance(ins []*mimo.Instance, fp FixParams, seed int64) ([]float64, error) {
	src := rng.New(seed)
	out := make([]float64, 0, len(ins))
	for _, in := range ins {
		dist, wall, _, err := e.decodeDist(in, fp, false, src)
		if err != nil {
			return nil, err
		}
		p0 := dist.GroundProbability(0, groundTol)
		out = append(out, metrics.TTS(p0, wall, 0.99))
	}
	return out, nil
}

// points expands the grid into operating points at Ta = 1 µs: every
// |J_F| × pause position with a 1 µs pause, or every |J_F| without one.
func (g OptGrid) points(pause bool, numAnneals int) []FixParams {
	var out []FixParams
	for _, jf := range g.JFs {
		if !pause {
			out = append(out, FixParams{JF: jf, Improved: true, Params: paramsTa(1, numAnneals)})
			continue
		}
		for _, sp := range g.PausePositions {
			out = append(out, FixParams{JF: jf, Improved: true, Params: paramsPause(1, 1, sp, numAnneals)})
		}
	}
	return out
}

// optOracle is §5.3.2's Opt bound: it re-runs the instance at every
// operating point and keeps the distribution with the lowest figure of merit
// (the first point wins ties), returning that merit with it.
func (e *Env) optOracle(in *mimo.Instance, points []FixParams, amortize bool, src *rng.Source,
	merit func(d *metrics.Distribution, wall, pf float64) float64) (float64, *metrics.Distribution, error) {
	best := math.Inf(1)
	var bestDist *metrics.Distribution
	for _, fp := range points {
		dist, wall, pf, err := e.decodeDist(in, fp, amortize, src)
		if err != nil {
			return 0, nil, err
		}
		if m := merit(dist, wall, pf); bestDist == nil || m < best {
			best, bestDist = m, dist
		}
	}
	return best, bestDist, nil
}

// fixOpt is one instance measured both ways the paper plots (§5.3.2): at its
// class's Fix operating point, and under the Opt oracle by TTB to a target
// BER. wall and pf are the Fix run's per-anneal wall time and
// parallelization factor, which both strategies' times are computed with.
type fixOpt struct {
	fix, opt       *metrics.Distribution
	fixTTB, optTTB float64
	wall, pf       float64
}

// measureFixOpt measures one instance with parallel amortization: the Fix
// distribution first, then the oracle over the grid, both drawing from src.
func (e *Env) measureFixOpt(in *mimo.Instance, numAnneals int, grid OptGrid, target float64, src *rng.Source) (fixOpt, error) {
	fix, wall, pf, err := e.decodeDist(in, ClassFix(in.Mod, numAnneals), true, src)
	if err != nil {
		return fixOpt{}, err
	}
	optTTB, opt, err := e.optOracle(in, grid.points(true, numAnneals), true, src,
		func(d *metrics.Distribution, wall, pf float64) float64 { return d.TTB(target, wall, pf) })
	if err != nil {
		return fixOpt{}, err
	}
	return fixOpt{fix: fix, opt: opt, fixTTB: fix.TTB(target, wall, pf), optTTB: optTTB, wall: wall, pf: pf}, nil
}

// measureEdge measures count noise-free instances of one edge configuration
// (Figs. 9–11), every read drawing from src.
func (e *Env) measureEdge(mod modulation.Modulation, users, count int, seed int64, numAnneals int, grid OptGrid, target float64, src *rng.Source) ([]fixOpt, error) {
	ins, err := noiseFreeInstances(mod, users, count, seed+int64(users)*3+int64(mod))
	if err != nil {
		return nil, err
	}
	out := make([]fixOpt, len(ins))
	for i, in := range ins {
		if out[i], err = e.measureFixOpt(in, numAnneals, grid, target, src); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// project maps the per-instance measurements to one number each.
func project(ms []fixOpt, f func(fixOpt) float64) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = f(m)
	}
	return out
}

// expectedBERs evaluates Eq. 9's expected BER after na anneals on each
// instance's distribution.
func expectedBERs(dists []*metrics.Distribution, na int) []float64 {
	out := make([]float64, len(dists))
	for i, d := range dists {
		out[i] = d.ExpectedBER(na)
	}
	return out
}

// reached counts the instances that got to their target out of those run.
type reached struct{ k, n int }

func (r reached) String() string { return fmt.Sprintf("%d/%d", r.k, r.n) }

// reachedOf counts the times that are not +Inf, "never reached".
func reachedOf(times []float64) reached {
	b := metrics.Box(times)
	return reached{b.Finite, b.Total}
}

// zfBER measures the zero-forcing (or, for a singular channel, MMSE) BER of
// one instance; 1.0 when both fail.
func zfBER(in *mimo.Instance) float64 {
	res, err := detector.ZeroForcing(in.Mod, in.H, in.Y)
	if err != nil {
		if res, err = detector.MMSE(in.Mod, in.H, in.Y, in.NoiseVariance()); err != nil {
			return 1
		}
	}
	return in.BER(res.Bits)
}
