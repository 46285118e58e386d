// Coded: the full soft-output receive chain end to end — interleave →
// convolutional encode → Gray modulate → anneal → ensemble LLRs → soft
// Viterbi — on 16-user 16-QAM Rayleigh uplinks, measuring the coded
// frame-error-rate gain of soft-decision decoding over hard decisions at an
// EQUAL anneal budget (equal Na). The soft path costs nothing extra at the
// annealer: the LLRs are computed from the same Na reads the hard decision
// already scored (internal/softout), so any coded-FER gain is free detector
// information the hard chain was throwing away.
//
// Two annealer profiles run side by side:
//
//   - next-gen: the paper's §8 outlook made concrete — a next-generation
//     chip with full logical connectivity (no minor-embedding; Pegasus-era
//     topologies shrink the paper's ⌈N/4⌉+1 chains toward direct coupling,
//     see experiments.TableFuture) and 10× tighter analog control
//     (ICE/10), annealed on a longer, colder schedule. On this profile the
//     detector reaches the raw-BER regime where the (133,171)₈ code bites,
//     and soft decisions strictly beat hard ones at every SNR point.
//
//   - DW2Q: the paper's own chip model, via the production compiled-soft
//     path (Decoder.Compile + a soft Decode per use). 16-user 16-QAM reduces
//     to N = 64 spins with 17-qubit chains — past the chip's measured
//     16-QAM edge of 9 users (§5.3, Figs. 9–11) — so its raw BER is far
//     above the code's threshold and BOTH chains fail every frame. The row
//     is reported for honesty: it is exactly why the paper leans on FEC
//     (§5.3.3) and why soft-output support matters for the next hardware
//     generation (Kasi et al., arXiv:2109.01465).
//
//     go run ./examples/coded
//     go run ./examples/coded -frames 24 -snrs 15,16,17,18,20
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"quamax"
	"quamax/internal/anneal"
	"quamax/internal/channel"
	"quamax/internal/coding"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/qubo"
	"quamax/internal/reduction"
	"quamax/internal/rng"
	"quamax/internal/softout"
)

const (
	users    = 16
	dataBits = 122 // +6 tail bits → 128 trellis steps → 256 coded bits
)

// frameStats accumulates one profile's chain results at one SNR.
type frameStats struct {
	frames, hardFE, softFE int
	rawErrs, rawBits       int
	saturated, llrCount    int
}

func (s frameStats) row(profile string, snr float64) string {
	return fmt.Sprintf("%-8s %5.0f  %8.4f  %6.3f  %6.3f  %7.0f%%",
		profile, snr,
		float64(s.rawErrs)/float64(s.rawBits),
		float64(s.hardFE)/float64(s.frames),
		float64(s.softFE)/float64(s.frames),
		100*float64(s.saturated)/float64(s.llrCount))
}

func main() {
	var (
		frames  = flag.Int("frames", 12, "coded frames per SNR point")
		na      = flag.Int("na", 100, "anneals per channel use (equal for hard and soft)")
		snrList = flag.String("snrs", "16,18,20", "comma-separated SNR points (dB) for the next-gen profile")
		dw2qSNR = flag.Float64("dw2q-snr", 20, "SNR of the DW2Q context row (<0 disables)")
		seed    = flag.Int64("seed", 2026, "random seed")
	)
	flag.Parse()

	mod := modulation.QAM16
	code := coding.NewWiFiCode()
	il := coding.BlockInterleaver{Rows: 16, Cols: 16} // 256 coded bits
	bitsPerUse := users * mod.BitsPerSymbol()         // 64 = one N=64 Ising problem
	uses := il.Size() / bitsPerUse

	fmt.Printf("coded chain: %d data bits → rate-1/2 K=7 → %d coded bits → %d×%d interleaver → %d channel uses of %d-user %v\n",
		dataBits, il.Size(), il.Rows, il.Cols, uses, users, mod)
	fmt.Printf("equal anneal budget: Na = %d reads per channel use for BOTH chains; LLRs reuse the hard decision's energies\n\n", *na)
	fmt.Printf("%-8s %5s  %8s  %6s  %6s  %8s\n", "profile", "SNR", "raw BER", "hFER", "sFER", "LLR sat")

	params := anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: *na}
	started := time.Now()

	for _, snrStr := range strings.Split(*snrList, ",") {
		snr, err := strconv.ParseFloat(strings.TrimSpace(snrStr), 64)
		if err != nil {
			log.Fatalf("bad -snrs entry %q: %v", snrStr, err)
		}
		st := runNextGen(mod, code, il, *frames, snr, params, rng.New(*seed))
		fmt.Println(st.row("next-gen", snr))
		if st.softFE >= st.hardFE {
			fmt.Printf("  (soft FER %d/%d did not strictly beat hard %d/%d at this point)\n",
				st.softFE, st.frames, st.hardFE, st.frames)
		}
	}
	if *dw2qSNR >= 0 {
		st := runDW2Q(mod, code, il, *frames, *dw2qSNR, params, rng.New(*seed))
		fmt.Println(st.row("DW2Q", *dw2qSNR))
	}

	fmt.Printf("\n%d frames/point in %v\n", *frames, time.Since(started).Round(time.Millisecond))
	fmt.Println("\nhFER/sFER: coded frame error rate with hard-decision / soft-decision Viterbi at equal Na.")
	fmt.Println("The next-gen rows are the acceptance demonstration: soft strictly below hard at every SNR.")
	fmt.Println("The DW2Q row shows the paper's chip past its 16-QAM edge (9 users): raw BER above the")
	fmt.Println("code threshold, both chains fail — the §5.3.3 motivation for better soft-capable hardware.")
}

// encodeFrame draws one frame's data, encodes, interleaves, and returns
// (data, interleaved coded bits).
func encodeFrame(code *coding.Convolutional, il coding.BlockInterleaver, src *rng.Source) ([]byte, []byte) {
	data := src.Bits(dataBits)
	inter, err := il.Interleave(code.Encode(data))
	if err != nil {
		log.Fatal(err)
	}
	return data, inter
}

// scoreFrame deinterleaves both streams, runs both Viterbi paths, and folds
// the result into st.
func scoreFrame(code *coding.Convolutional, il coding.BlockInterleaver, st *frameStats, data, rxHard []byte, rxLLR []float64) {
	deHard, err := il.Deinterleave(rxHard)
	if err != nil {
		log.Fatal(err)
	}
	deLLR, err := il.DeinterleaveLLRs(rxLLR)
	if err != nil {
		log.Fatal(err)
	}
	hardDec, err := code.Decode(deHard)
	if err != nil {
		log.Fatal(err)
	}
	softDec, err := code.DecodeSoft(deLLR)
	if err != nil {
		log.Fatal(err)
	}
	he, se := 0, 0
	for i := range data {
		if hardDec[i] != data[i] {
			he++
		}
		if softDec[i] != data[i] {
			se++
		}
	}
	st.frames++
	if he > 0 {
		st.hardFE++
	}
	if se > 0 {
		st.softFE++
	}
}

// nextGenMachine is the §8 forward-looking annealer model: the calibrated
// simulator with 10× tighter intrinsic control errors and a longer, colder
// schedule. Full connectivity is expressed by programming the logical
// problem directly (qubo.SparseFromIsing) instead of minor-embedding it.
func nextGenMachine() *anneal.Machine {
	m := anneal.NewMachine()
	m.BetaFinal = 16
	m.SweepsPerMicrosecond *= 8
	m.ICE.HMean *= 0.1
	m.ICE.HStd *= 0.1
	m.ICE.JMean *= 0.1
	m.ICE.JStd *= 0.1
	return m
}

// runNextGen measures one SNR point on the next-generation profile: compile
// the channel once per frame (reduction.CompileChannel), rewrite only the
// biases per channel use, anneal the logical program directly, and feed the
// read ensemble to internal/softout.
func runNextGen(mod modulation.Modulation, code *coding.Convolutional, il coding.BlockInterleaver, frames int, snr float64, params anneal.Params, src *rng.Source) frameStats {
	m := nextGenMachine()
	bitsPerUse := users * mod.BitsPerSymbol()
	var st frameStats
	for f := 0; f < frames; f++ {
		data, inter := encodeFrame(code, il, src)
		h := channel.Rayleigh{}.Generate(src, users, users)
		prog := reduction.CompileChannel(mod, h)
		rxHard := make([]byte, 0, len(inter))
		rxLLR := make([]float64, 0, len(inter))
		for u := 0; u*bitsPerUse < len(inter); u++ {
			txBits := inter[u*bitsPerUse : (u+1)*bitsPerUse]
			in, err := mimo.FromParts(src, mimo.Config{Mod: mod, Nt: users, Nr: users,
				Channel: channel.Rayleigh{}, SNRdB: snr}, h, txBits)
			if err != nil {
				log.Fatal(err)
			}
			logical := prog.Biases(in.Y)
			samples, err := m.Run(qubo.SparseFromIsing(logical), params, true, src)
			if err != nil {
				log.Fatal(err)
			}
			ens := softout.NewEnsemble(logical.N, 256)
			bestE := 0.0
			var bestBits []byte
			for _, s := range samples {
				e := logical.Energy(s.Spins)
				qb := qubo.BitsFromSpins(s.Spins)
				ens.Add(mod.PostTranslate(qb), e)
				if bestBits == nil || e < bestE {
					bestE = e
					bestBits = qb
				}
			}
			llrs, sat := ens.LLRs(softout.Spec{NoiseVar: in.NoiseVariance()})
			hardBits := mod.PostTranslate(bestBits)
			st.rawErrs += in.BitErrors(hardBits)
			st.rawBits += len(hardBits)
			st.saturated += sat
			st.llrCount += len(llrs)
			rxHard = append(rxHard, hardBits...)
			rxLLR = append(rxLLR, llrs...)
		}
		scoreFrame(code, il, &st, data, rxHard, rxLLR)
	}
	return st
}

// runDW2Q measures the context row on the paper's chip model through the
// production pipeline: Decoder.Compile once per frame, one soft Decode
// naming the compiled channel per channel use, chain strength scaled to the compiled channel's
// coefficient range (the 16-QAM fit of JF = 12 was measured at Nt ≤ 9;
// a 16-user channel's couplings are an order of magnitude larger, so an
// unscaled chain shatters).
func runDW2Q(mod modulation.Modulation, code *coding.Convolutional, il coding.BlockInterleaver, frames int, snr float64, params anneal.Params, src *rng.Source) frameStats {
	dec, err := quamax.NewDecoder(quamax.Options{Params: params})
	if err != nil {
		log.Fatal(err)
	}
	bitsPerUse := users * mod.BitsPerSymbol()
	var st frameStats
	for f := 0; f < frames; f++ {
		data, inter := encodeFrame(code, il, src)
		h := channel.Rayleigh{}.Generate(src, users, users)
		cc, err := dec.Compile(mod, h)
		if err != nil {
			log.Fatal(err)
		}
		jf := 0.5 * reduction.CompileChannel(mod, h).CouplingTemplate().MaxAbsCoefficient()
		rxHard := make([]byte, 0, len(inter))
		rxLLR := make([]float64, 0, len(inter))
		for u := 0; u*bitsPerUse < len(inter); u++ {
			txBits := inter[u*bitsPerUse : (u+1)*bitsPerUse]
			in, err := mimo.FromParts(src, mimo.Config{Mod: mod, Nt: users, Nr: users,
				Channel: channel.Rayleigh{}, SNRdB: snr}, h, txBits)
			if err != nil {
				log.Fatal(err)
			}
			soft := &softout.Spec{NoiseVar: in.NoiseVariance(), MaxCandidates: 256}
			out, err := dec.Decode(quamax.Request{CC: cc, Y: in.Y, Soft: soft}, quamax.Budget{Params: params, JF: jf}, src)
			if err != nil {
				log.Fatal(err)
			}
			st.rawErrs += in.BitErrors(out.Bits)
			st.rawBits += len(out.Bits)
			st.saturated += out.LLRSaturated
			st.llrCount += len(out.LLRs)
			rxHard = append(rxHard, out.Bits...)
			rxLLR = append(rxLLR, out.LLRs...)
		}
		scoreFrame(code, il, &st, data, rxHard, rxLLR)
	}
	return st
}
