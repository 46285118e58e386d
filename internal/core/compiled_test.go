package core

import (
	"reflect"
	"testing"

	"quamax/internal/anneal"
	"quamax/internal/channel"
	"quamax/internal/chimera"
	"quamax/internal/linalg"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/rng"
	"quamax/internal/softout"
)

func compiledTestDecoder(t *testing.T, cache int) *Decoder {
	t.Helper()
	d, err := New(Options{
		Graph:        chimera.New(6),
		Params:       anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 25},
		ChannelCache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func compiledInstance(t *testing.T, seed int64, mod modulation.Modulation, nt int, snr float64) *mimo.Instance {
	t.Helper()
	in, err := mimo.Generate(rng.New(seed), mimo.Config{
		Mod: mod, Nt: nt, Nr: nt, Channel: channel.RandomPhase{}, SNRdB: snr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// sameOutcome is reflect.DeepEqual on two outcomes but for CompileMicros,
// their one wall-clock field.
func sameOutcome(a, b *Outcome) bool {
	x, y := *a, *b
	x.CompileMicros, y.CompileMicros = 0, 0
	return reflect.DeepEqual(x, y)
}

// outcomesIdentical requires the hard fields of two decode outcomes to agree
// exactly — bits, symbols, energies, chain diagnostics — naming the first
// field that does not.
func outcomesIdentical(t *testing.T, label string, got, want *Outcome) {
	t.Helper()
	if !reflect.DeepEqual(got.Bits, want.Bits) {
		t.Fatalf("%s: bits %v, want %v", label, got.Bits, want.Bits)
	}
	if !reflect.DeepEqual(got.Symbols, want.Symbols) {
		t.Fatalf("%s: symbols %v, want %v", label, got.Symbols, want.Symbols)
	}
	if got.Energy != want.Energy {
		t.Fatalf("%s: energy %v, want %v (not bit-identical)", label, got.Energy, want.Energy)
	}
	if got.BrokenChains != want.BrokenChains {
		t.Fatalf("%s: broken chains %d, want %d", label, got.BrokenChains, want.BrokenChains)
	}
	if got.Pf != want.Pf {
		t.Fatalf("%s: Pf %v, want %v", label, got.Pf, want.Pf)
	}
}

// formsRow is one row of the raw-vs-compiled identity table: the same
// requests — one is a solo Decode, several share a DecodeRun — are sent once
// naming (Mod, H) and once naming the Compile'd channel, on identically
// seeded sources. The raw form IS the compiled form with a cache miss, so the
// two Outcomes must be reflect.DeepEqual: bits, symbols, energies, chain
// diagnostics, Pf and every LLR.
type formsRow struct {
	name   string
	ins    []*mimo.Instance
	soft   []bool // per request; nil = all hard
	budget Budget
	seed   int64
}

func checkFormsIdentical(t *testing.T, d *Decoder, rows []formsRow) {
	t.Helper()
	for _, r := range rows {
		raw := make([]Request, len(r.ins))
		compiled := make([]Request, len(r.ins))
		for i, in := range r.ins {
			cc, err := d.Compile(in.Mod, in.H)
			if err != nil {
				t.Fatal(err)
			}
			raw[i] = Request{Mod: in.Mod, H: in.H, Y: in.Y}
			compiled[i] = Request{CC: cc, Y: in.Y}
			if r.soft != nil && r.soft[i] {
				spec := softout.Spec{NoiseVar: in.NoiseVariance()}
				raw[i].Soft, compiled[i].Soft = &spec, &spec
			}
		}
		decode := func(reqs []Request) []*Outcome {
			if len(reqs) == 1 {
				out, err := d.Decode(reqs[0], r.budget, rng.New(r.seed))
				if err != nil {
					t.Fatalf("%s: %v", r.name, err)
				}
				return []*Outcome{out}
			}
			outs, err := d.DecodeRun(reqs, r.budget, rng.New(r.seed))
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			return outs
		}
		want, got := decode(raw), decode(compiled)
		for i := range want {
			outcomesIdentical(t, r.name, got[i], want[i])
			if want[i].CompileMicros <= 0 || got[i].CompileMicros != 0 {
				t.Fatalf("%s item %d: compile %v µs raw, %v µs compiled; want a timed raw compile only", r.name, i, want[i].CompileMicros, got[i].CompileMicros)
			}
			if !sameOutcome(got[i], want[i]) {
				t.Fatalf("%s item %d: compiled %+v, raw %+v", r.name, i, got[i], want[i])
			}
			if r.soft != nil && r.soft[i] != (got[i].LLRs != nil) {
				t.Fatalf("%s item %d: soft=%v but LLRs=%v", r.name, i, r.soft[i], got[i].LLRs)
			}
		}
	}
}

// Acceptance: a compiled request must be bit-identical to the raw request on
// the same (H, y, seed) — same random stream, same samples, same decision —
// for every modulation, across several symbols of one coherence window.
func TestDecodeCompiledBitIdentical(t *testing.T) {
	cases := []struct {
		mod modulation.Modulation
		nt  int
	}{
		{modulation.BPSK, 4},
		{modulation.QPSK, 3},
		{modulation.QAM16, 2},
	}
	var rows []formsRow
	for _, c := range cases {
		in := compiledInstance(t, 910, c.mod, c.nt, 22)
		// Fresh y per symbol through the SAME channel.
		ysrc := rng.New(6)
		for sym := 0; sym < 3; sym++ {
			sym1 := *in
			bits := ysrc.Bits(c.nt * c.mod.BitsPerSymbol())
			sym1.Y = channel.AddAWGN(ysrc, linalg.MulVec(in.H, c.mod.MapGrayVector(bits)), 0.1)
			rows = append(rows, formsRow{name: c.mod.String(), ins: []*mimo.Instance{&sym1}, seed: int64(100 + sym)})
		}
	}
	checkFormsIdentical(t, compiledTestDecoder(t, 0), rows)
}

// A budget override (reads, schedule, chain strength) must be honored
// identically by both forms.
func TestDecodeCompiledWithParamsBitIdentical(t *testing.T) {
	params := anneal.Params{AnnealTimeMicros: 2, PauseTimeMicros: 1, PausePosition: 0.4, NumAnneals: 9}
	checkFormsIdentical(t, compiledTestDecoder(t, 0), []formsRow{{
		name:   "with-budget",
		ins:    []*mimo.Instance{compiledInstance(t, 911, modulation.QPSK, 4, 25)},
		budget: Budget{Params: params, JF: 7},
		seed:   12,
	}})
}

// A shared run must not care either, mixing symbols from different channels
// and modulations of one logical size — and must still decode them.
func TestDecodeCompiledSharedRunBitIdentical(t *testing.T) {
	d := compiledTestDecoder(t, 0)
	ins := []*mimo.Instance{
		compiledInstance(t, 920, modulation.QPSK, 2, 20),
		compiledInstance(t, 921, modulation.QPSK, 2, 20),
		compiledInstance(t, 922, modulation.BPSK, 4, 20), // same N=4, different mod
	}
	slots, err := d.BatchSlots(4)
	if err != nil {
		t.Fatal(err)
	}
	if slots < len(ins) {
		t.Skipf("only %d slots on this graph", slots)
	}
	checkFormsIdentical(t, d, []formsRow{{name: "run", ins: ins, seed: 31}})

	reqs := make([]Request, len(ins))
	for i, in := range ins {
		reqs[i] = Request{Mod: in.Mod, H: in.H, Y: in.Y}
	}
	outs, err := d.DecodeRun(reqs, Budget{}, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if errs := ins[i].BitErrors(out.Bits); errs != 0 {
			t.Errorf("item %d: %d bit errors at 20 dB", i, errs)
		}
	}
}

// Options.ChannelCache bounds the decoder's compiled-channel store: Compile
// hits on a channel it holds and returns the one artifact, misses on a new
// one, and evicts past the configured capacity — with ChannelCacheStats
// reporting exactly that. (The store's own mechanics are TestWindowStore's.)
func TestChannelCacheLRU(t *testing.T) {
	d := compiledTestDecoder(t, 2)
	ins := []*mimo.Instance{
		compiledInstance(t, 930, modulation.QPSK, 2, 20),
		compiledInstance(t, 931, modulation.QPSK, 2, 20),
		compiledInstance(t, 932, modulation.QPSK, 2, 20),
	}
	cc0, err := d.Compile(ins[0].Mod, ins[0].H)
	if err != nil {
		t.Fatal(err)
	}
	again, err := d.Compile(ins[0].Mod, ins[0].H)
	if err != nil {
		t.Fatal(err)
	}
	if again != cc0 {
		t.Fatal("recompiling an identical channel returned a new artifact")
	}
	if _, err := d.Compile(ins[1].Mod, ins[1].H); err != nil {
		t.Fatal(err)
	}
	// Capacity 2: compiling a third channel evicts the LRU entry, which is
	// ins[0]... unless its recent hit kept it warm. Touch ins[0], then add
	// ins[2] to evict ins[1].
	if _, err := d.Compile(ins[0].Mod, ins[0].H); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Compile(ins[2].Mod, ins[2].H); err != nil {
		t.Fatal(err)
	}
	st := d.ChannelCacheStats()
	if st.Misses != 3 || st.Hits != 2 || st.Evictions != 1 {
		t.Fatalf("cache stats %+v, want 3 misses / 2 hits / 1 eviction", st)
	}
}

// Two channels under one key — a caller reusing, forging or colliding a
// ChannelKey: a window carrying another channel's key is a miss that compiles
// ITS channel, and its decode is bit-identical to the un-keyed decode of that
// channel. A window that is not the request's own channel runs the request
// raw, bit-identical too. A warm window under the right key stays a hit.
func TestReusedKeyCompilesTheRequestsOwnChannel(t *testing.T) {
	d := compiledTestDecoder(t, 4)
	a := compiledInstance(t, 970, modulation.QPSK, 3, 20)
	b := compiledInstance(t, 971, modulation.QPSK, 3, 20)
	wa := NewWindow(a.Mod, a.H)
	var out Outcome
	for i := range 2 {
		if _, err := d.Decode(Request{Window: wa, Y: a.Y, Answer: &out}, Budget{}, rng.New(5)); err != nil || out.CacheHit != (i == 1) {
			t.Fatalf("the window's own key, decode %d: hit=%v err=%v", i, out.CacheHit, err)
		}
	}
	raw, err := d.Decode(Request{Mod: b.Mod, H: b.H, Y: b.Y}, Budget{}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	forged := &Window{mod: b.Mod, h: *b.H, key: wa.Key()}
	keyed, err := d.Decode(Request{Window: forged, Y: b.Y}, Budget{}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if keyed.CacheHit {
		t.Fatal("another channel under the same key was served the first channel's artifact")
	}
	outcomesIdentical(t, "reused key", keyed, raw)
	if !sameOutcome(keyed, raw) {
		t.Fatalf("keyed %+v, un-keyed %+v", keyed, raw)
	}
	mislabelled, err := d.Decode(Request{Window: wa, Mod: b.Mod, H: b.H, Y: b.Y}, Budget{}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutcome(mislabelled, raw) {
		t.Fatalf("a request under another channel's window %+v, un-keyed %+v", mislabelled, raw)
	}
}

// A compiled channel from one decoder must be rejected by another.
func TestCompiledChannelDecoderOwnership(t *testing.T) {
	d1 := compiledTestDecoder(t, 0)
	d2 := compiledTestDecoder(t, 0)
	in := compiledInstance(t, 940, modulation.BPSK, 2, 20)
	cc, err := d1.Compile(in.Mod, in.H)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Decode(Request{CC: cc, Y: in.Y}, Budget{}, rng.New(1)); err == nil {
		t.Fatal("foreign compiled channel accepted")
	}
}

// Distinct channels must fingerprint differently, and the fingerprint must
// separate modulations sharing one matrix.
func TestFingerprintChannel(t *testing.T) {
	src := rng.New(50)
	h1 := channel.Rayleigh{}.Generate(src, 3, 2)
	h2 := channel.Rayleigh{}.Generate(src, 3, 2)
	if FingerprintChannel(modulation.QPSK, h1) == FingerprintChannel(modulation.QPSK, h2) {
		t.Fatal("distinct channels collided")
	}
	if FingerprintChannel(modulation.QPSK, h1) == FingerprintChannel(modulation.QAM16, h1) {
		t.Fatal("distinct modulations collided")
	}
	if FingerprintChannel(modulation.QPSK, h1) != FingerprintChannel(modulation.QPSK, h1.Clone()) {
		t.Fatal("identical channels fingerprinted differently")
	}
	if FingerprintChannel(modulation.QPSK, h1) == 0 {
		t.Fatal("fingerprint used the reserved zero key")
	}
}
