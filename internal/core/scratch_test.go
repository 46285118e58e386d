package core

import (
	"math"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"

	"quamax/internal/anneal"
	"quamax/internal/chimera"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/rng"
	"quamax/internal/softout"
)

// A decode allocates only what it returns. On a compiled channel a hard decode
// makes 3 allocations — the Outcome, its Bits and Symbols — whatever Na is:
// per-read state, the read streams, the β list, the waiting reads, the worker
// body, this y's fields and every scorer buffer are the pooled scratch's. A
// soft decode adds its LLRs and one map key per distinct candidate (≤ Na). A
// shared run makes one per call — the slice of outcomes it returns — and per
// item the same three as a solo decode: the slots' prepared programs are the
// channels' cached templates, and the tallies, tie-break streams and field
// buffers are the pooled scratch's.
func TestDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	d, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	const hardBound, runBound = 3, 1 + 3*3
	budget := func(na int) Budget {
		return Budget{Params: anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: na}}
	}
	for _, c := range []struct {
		mod modulation.Modulation
		nt  int
	}{{modulation.QPSK, 8}, {modulation.BPSK, 48}} {
		in := compiledInstance(t, 5, c.mod, c.nt, 20)
		cc, err := d.Compile(in.Mod, in.H)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(1)
		measure := func(na int, reqs ...Request) float64 {
			// A collection mid-measurement would empty the pooled scratch and
			// count its rebuild, so none runs while the decodes are counted.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			return testing.AllocsPerRun(10, func() {
				var err error
				if len(reqs) == 1 {
					_, err = d.Decode(reqs[0], budget(na), src)
				} else {
					_, err = d.DecodeRun(reqs, budget(na), src)
				}
				if err != nil {
					t.Fatal(err)
				}
			})
		}
		hard := Request{CC: cc, Y: in.Y}
		soft := hard
		soft.Soft = &softout.Spec{NoiseVar: in.NoiseVariance()}

		h5, h19 := measure(5, hard), measure(19, hard)
		if h5 != h19 || h5 > hardBound {
			t.Errorf("N=%d hard decode: %v allocations at Na=5, %v at Na=19; want equal and ≤ %d", cc.LogicalSpins(), h5, h19, hardBound)
		}
		measure(19, soft) // the ensemble's storage reaches its size
		if s := measure(19, soft); s > h19+1+19 {
			t.Errorf("N=%d soft decode: %v allocations at Na=19, want ≤ hard + LLRs + Na keys = %v", cc.LogicalSpins(), s, h19+1+19)
		}
		if slots, err := d.BatchSlots(cc.LogicalSpins()); err != nil || slots < 3 {
			continue // N=48 fills the chip: no 3-item run to measure
		}
		r5, r19 := measure(5, hard, hard, hard), measure(19, hard, hard, hard)
		if r5 != r19 || r5 > runBound {
			t.Errorf("N=%d 3-item run: %v allocations at Na=5, %v at Na=19; want equal and ≤ %d", cc.LogicalSpins(), r5, r19, runBound)
		}
	}
}

// sameDecision requires two outcomes to agree on everything a pooled buffer
// could corrupt: bits, symbols, energy and LLRs to the last float bit, the
// broken-chain count and the soft tallies.
func sameDecision(got, want *Outcome) bool {
	if !reflect.DeepEqual(got.Bits, want.Bits) || !reflect.DeepEqual(got.Symbols, want.Symbols) ||
		math.Float64bits(got.Energy) != math.Float64bits(want.Energy) ||
		got.BrokenChains != want.BrokenChains || len(got.LLRs) != len(want.LLRs) ||
		got.LLRSaturated != want.LLRSaturated || got.SoftCandidates != want.SoftCandidates {
		return false
	}
	for k := range want.LLRs {
		if math.Float64bits(got.LLRs[k]) != math.Float64bits(want.LLRs[k]) {
			return false
		}
	}
	return true
}

// Pooled scratch must never leak one decode's fields, samples, bits or
// candidates into another: hard, soft, reverse and shared-run requests of
// mixed N and modulation racing on one Decoder (so every scratch is rebound
// across sizes and request shapes) must each equal the same request on a
// fresh Decoder with the same seed. CI runs this under -race -count=10.
func TestPooledDecodeMatchesFreshDecoder(t *testing.T) {
	newDecoder := func() *Decoder {
		d, err := New(Options{
			Graph:  chimera.New(6),
			Params: anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 7},
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	ins := []*mimo.Instance{
		compiledInstance(t, 61, modulation.QPSK, 4, 14),
		compiledInstance(t, 62, modulation.BPSK, 12, 12),
		compiledInstance(t, 63, modulation.QAM16, 3, 18),
		compiledInstance(t, 64, modulation.QPSK, 8, 10),
		compiledInstance(t, 65, modulation.BPSK, 12, 8),
	}
	// Each job decodes on the decoder it is given; all of them compile their
	// channels there, so the shared decoder serves them from its cache.
	type job func(d *Decoder, src *rng.Source) ([]*Outcome, error)
	solo := func(in *mimo.Instance, soft, reverse bool, na int) job {
		return func(d *Decoder, src *rng.Source) ([]*Outcome, error) {
			cc, err := d.Compile(in.Mod, in.H)
			if err != nil {
				return nil, err
			}
			req := Request{CC: cc, Y: in.Y, Reverse: reverse}
			if soft {
				req.Soft = &softout.Spec{NoiseVar: in.NoiseVariance(), MaxCandidates: 4}
			}
			out, err := d.Decode(req, Budget{Params: anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: na}}, src)
			return []*Outcome{out}, err
		}
	}
	run := func(soft []bool, items ...*mimo.Instance) job {
		return func(d *Decoder, src *rng.Source) ([]*Outcome, error) {
			reqs := make([]Request, len(items))
			for i, in := range items {
				cc, err := d.Compile(in.Mod, in.H)
				if err != nil {
					return nil, err
				}
				reqs[i] = Request{CC: cc, Y: in.Y}
				if soft[i] {
					reqs[i].Soft = &softout.Spec{NoiseVar: in.NoiseVariance()}
				}
			}
			return d.DecodeRun(reqs, Budget{}, src)
		}
	}
	jobs := []job{
		solo(ins[0], false, false, 5),
		solo(ins[1], true, false, 9),
		solo(ins[2], false, true, 6),
		solo(ins[3], true, false, 12),
		solo(ins[4], false, true, 3),
		solo(ins[3], false, false, 4),
		run([]bool{false, true}, ins[1], ins[2]), // N = 12 twice, BPSK beside 16-QAM
		run([]bool{true, false, false}, ins[4], ins[1], ins[2]),
	}
	wants := make([][]*Outcome, len(jobs))
	for i, j := range jobs {
		var err error
		if wants[i], err = j(newDecoder(), rng.New(int64(100+i))); err != nil {
			t.Fatalf("job %d on a fresh decoder: %v", i, err)
		}
	}
	shared := newDecoder()
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 6; rep++ {
				got, err := j(shared, rng.New(int64(100+i)))
				if err != nil {
					t.Errorf("job %d rep %d: %v", i, rep, err)
					return
				}
				for k := range wants[i] {
					if !sameDecision(got[k], wants[i][k]) {
						t.Errorf("job %d rep %d item %d: pooled decode %+v, fresh decoder %+v", i, rep, k, got[k], wants[i][k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
