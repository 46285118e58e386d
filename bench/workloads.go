package main

import (
	"fmt"
	"time"

	"quamax/internal/channel"
	"quamax/internal/linalg"
	"quamax/internal/modulation"
	"quamax/internal/rng"
	"quamax/internal/trace"
)

// kind is the request class an AP issues for one trace entry.
type kind uint8

const (
	kindHard kind = iota
	kindSoft
	kindPrecode
)

// workload is one traffic mix plus the server configuration it is served
// under. Rates, limits and BER ceilings are constants fixed when the
// benchmark landed (≈25% of the saturation rate measured then); they are not
// recomputed per run, so a later change is judged against the same offered
// load.
type workload struct {
	name string

	mod   modulation.Modulation
	trace trace.MultiUserConfig
	// slot, when positive, gives every generated channel exactly this many
	// symbols (see slotted); otherwise a window's length is the trace's own
	// geometric draw.
	slot int
	// snrDB lists the per-user receive SNR choices, dealt out by user ID.
	snrDB []float64
	// softTenths and precodeTenths split users into request classes, in
	// tenths of the population; the rest issue hard decodes.
	softTenths, precodeTenths int
	// keyed selects registered channels plus y-only frames; otherwise every
	// frame is self-contained and carries H.
	keyed bool
	// na is the server's configured read count (anneals per decode).
	na int
	// targetBER and deadline are the per-request QoS fields (0 = none sent).
	targetBER float64
	deadline  time.Duration
	// stub replaces every shard's pool with the bench's zero-cost solver.
	stub bool

	// rate is the paced phase's Poisson arrival rate (requests/s); limit is
	// the latency limit L behind deadline_met_share.
	rate  float64
	limit time.Duration
	// berCeiling is the correctness ceiling on the run's pooled BER: 1.5× the
	// landing value, 2× on cells_mixed_qos, whose BER sits in a few badly
	// conditioned windows and moves ±25% with the seed (0 = unchecked).
	berCeiling float64
}

// traceLen is the generated trace length; longer phases replay it cyclically.
const (
	// The headline trace is 144 channels of headlineSlot symbols each: more
	// channels than the two shards' compiled-channel caches hold (2×64), so a
	// replayed channel has been evicted by the time it comes round again.
	headlineSlot   = 14
	traceLenBPSK48 = 144
	traceLenFresh  = 512
	traceLenMixed  = 8192
	// slotLanes is how many slotted channels are live at a time: the 4 cells
	// × 4 users of the bpsk48 traces.
	slotLanes = 16
)

func bpsk48Trace(requests int) trace.MultiUserConfig {
	return trace.MultiUserConfig{
		Cells: 4, Users: 16, Requests: requests, ZipfS: 0,
		Antennas: 48, CellUsers: 48, WindowUses: 1,
		// Rayleigh, no shadowing; every generated request is a new channel
		// (a new fingerprint). fresh_bpsk48 sends each once, headline_bpsk48
		// headlineSlot times.
		Doppler: 0.05,
	}
}

func mixedTrace() trace.MultiUserConfig {
	return trace.MultiUserConfig{
		Cells: 16, Users: 256, Requests: traceLenMixed, ZipfS: 1.1,
		Antennas: 8, CellUsers: 8, WindowUses: 16,
		RiceanK: 3, Doppler: 0.05,
	}
}

// workloads lists the four benchmark workloads in BENCHMARK.json order; why
// each was chosen is recorded there and, at length, in README.md.
var workloads = []*workload{
	{
		name: "headline_bpsk48",
		mod:  modulation.BPSK, trace: bpsk48Trace(traceLenBPSK48), slot: headlineSlot, snrDB: []float64{20},
		keyed: true, na: 5,
		rate: 30, limit: 60 * time.Millisecond, berCeiling: 0.073,
	},
	{
		name: "fresh_bpsk48",
		mod:  modulation.BPSK, trace: bpsk48Trace(traceLenFresh), snrDB: []float64{20},
		keyed: false, na: 1,
		rate: 50, limit: 40 * time.Millisecond, berCeiling: 0.13,
	},
	{
		name: "cells_mixed_qos",
		mod:  modulation.QPSK, trace: mixedTrace(), snrDB: []float64{15, 20, 25, 30},
		softTenths: 2, precodeTenths: 1,
		keyed: true, na: 100, targetBER: 1e-3, deadline: 50 * time.Millisecond,
		rate: 40, limit: 50 * time.Millisecond, berCeiling: 0.068,
	},
	{
		name: "wire_noop",
		mod:  modulation.QPSK, trace: mixedTrace(), snrDB: []float64{15, 20, 25, 30},
		softTenths: 2, precodeTenths: 1,
		keyed: true, na: 100, targetBER: 1e-3, deadline: 50 * time.Millisecond,
		stub: true,
		rate: 2000, limit: 2 * time.Millisecond,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// request is one generated input: what the AP sends and the ground truth the
// benchmark scores the answer against. The server only ever sees frames.
type request struct {
	conn int
	kind kind
	h    *linalg.Mat
	// y is the received vector of a decode, or the user-data symbol vector s
	// of a precode.
	y []complex128
	// bits are the transmitted data bits of a decode (nil for precodes).
	bits     []byte
	noiseVar float64
}

// inputs is a workload's generated request sequence.
type inputs struct {
	reqs    []request
	windows int
}

// slotted turns a trace of distinct channels (WindowUses = 1) into one where
// every channel carries exactly uses symbols, as an LTE slot does: slotLanes
// channels are live at a time and are served round-robin, one symbol each, and
// the lanes' slot boundaries are staggered so that new channels arrive evenly.
// The trace's own window lengths are geometric; with them the share of
// requests that meet a new channel, each costing 25 times the allocations of
// one that does not, moved ±10% with the seed. The order is cyclic: replaying
// it keeps every slot whole.
func slotted(reqs []trace.Request, uses int) []trace.Request {
	perLane := len(reqs) / slotLanes * uses
	out := make([]trace.Request, perLane*slotLanes)
	for p := range out {
		t, lane := p/slotLanes, p%slotLanes
		shifted := (t + lane*uses/slotLanes) % perLane
		out[p] = reqs[lane+slotLanes*(shifted/uses)]
	}
	return out
}

// generate draws the workload's inputs from seed: the multi-user trace gives
// cells, users, coherence windows and channels; bits, modulation and AWGN are
// added here. The same seed gives the same inputs.
func (w *workload) generate(seed int64, conns int) (*inputs, error) {
	src := rng.New(seed)
	tr, err := trace.GenerateMultiUser(src.Split(), w.trace)
	if err != nil {
		return nil, err
	}
	requests := tr.Requests
	if w.slot > 0 {
		requests = slotted(requests, w.slot)
	}
	nt := w.trace.CellUsers
	usigma := make([]float64, len(w.snrDB))
	for i, db := range w.snrDB {
		usigma[i] = channel.NoiseSigma(w.mod, nt, db)
	}
	dsrc := src.Split()
	in := &inputs{windows: tr.Windows}
	for _, r := range requests {
		// A user's SNR and request class follow from its ID, not from a draw,
		// so every cell carries the same mix whatever the seed; the seed
		// decides which users are active, their windows, channels and data.
		sigma := usigma[r.User%len(usigma)]
		k := kindHard
		switch slot := r.User * 7 % 10; {
		case slot < w.precodeTenths:
			k = kindPrecode
		case slot < w.precodeTenths+w.softTenths:
			k = kindSoft
		}
		req := request{conn: r.Cell % conns, kind: k, h: r.H, noiseVar: sigma * sigma}
		bits := dsrc.Bits(nt * w.mod.BitsPerSymbol())
		symbols := w.mod.MapGrayVector(bits)
		if k == kindPrecode {
			req.y = symbols
		} else {
			req.bits = bits
			req.y = channel.AddAWGN(dsrc, linalg.MulVec(r.H, symbols), sigma)
		}
		in.reqs = append(in.reqs, req)
	}
	return in, nil
}
