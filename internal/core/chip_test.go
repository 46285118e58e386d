package core

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"

	"quamax/internal/anneal"
	"quamax/internal/channel"
	"quamax/internal/chimera"
	"quamax/internal/embedding"
	"quamax/internal/linalg"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/rng"
)

// lostCouplerGraph is a C_8 chip that lost one of the two couplers on which
// the first such pair of an N-spin placement's chains meets: the placement
// stays, and that pair's coupling is split over one edge instead of two.
func lostCouplerGraph(t *testing.T, n int) *chimera.Graph {
	t.Helper()
	clean := chimera.New(8)
	e, err := embedding.Embed(clean, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var meet [][2]int
			for _, a := range e.Chains[i] {
				for _, b := range e.Chains[j] {
					if clean.HasEdge(a, b) {
						meet = append(meet, [2]int{a, b})
					}
				}
			}
			if len(meet) > 1 {
				return chimera.NewWithDefects(8, nil, meet[:1])
			}
		}
	}
	t.Fatal("no pair of chains meets on two couplers")
	return nil
}

// realChannel returns h with every imaginary part dropped: a real-valued
// channel, whose Gram matrix is real, so QPSK's cross I/Q couplings are exact
// zeros.
func realChannel(h *linalg.Mat) *linalg.Mat {
	out := linalg.NewMat(h.Rows, h.Cols)
	for i, v := range h.Data {
		out.Data[i] = complex(real(v), 0)
	}
	return out
}

// A channel's chip program — its weights filled in one pass over the
// decoder's shared adjacency — is the program EmbedIsing → PrepareProgram
// compiles from the same couplings, bit for bit: the same qubit count and
// coupler auto-scale, and the same samples from every seeded run. It holds
// for every modulation's structural zeros, for a real-valued channel's exact
// zeros, at two chain strengths, on the primary placement and on every slot,
// on the DW2Q and on a chip whose lost coupler leaves its slots laid out
// differently.
func TestChipProgramMatchesEmbedIsing(t *testing.T) {
	params := anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 4}
	type shape struct {
		mod  modulation.Modulation
		nt   int
		real bool
	}
	for _, c := range []struct {
		name   string
		graph  *chimera.Graph
		shapes []shape
		chips  int // one per shape and slot layout: each shape has its own N or nonzero set
	}{
		{"dw2q", chimera.DW2Q(), []shape{
			{modulation.BPSK, 6, false}, {modulation.BPSK, 48, false}, {modulation.BPSK, 20, true},
			{modulation.QPSK, 8, false}, {modulation.QPSK, 8, true}, {modulation.QAM16, 4, false},
		}, 6},
		{"lost coupler", lostCouplerGraph(t, 16), []shape{
			{modulation.BPSK, 16, false}, {modulation.QPSK, 8, false}, {modulation.QPSK, 8, true},
			{modulation.QAM16, 4, false}, {modulation.QAM16, 4, true},
		}, 10}, // the placement that lost a coupler, and the slots that did not
	} {
		d, err := New(Options{Graph: c.graph, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		m := d.opts.Machine
		for _, s := range c.shapes {
			in := compiledInstance(t, int64(70+s.nt), s.mod, s.nt, 12)
			h := in.H
			if s.real {
				h = realChannel(h)
			}
			cc, _, err := d.compileInto(new(CompiledChannel), s.mod, h)
			if err != nil {
				t.Fatal(err)
			}
			placements := append([]*embedding.Embedding{cc.emb}, cc.packs...)
			for _, jf := range []float64{4, 0.7} {
				for pi, emb := range placements {
					label := fmt.Sprintf("%s %v nt=%d real=%t jf=%g placement %d", c.name, s.mod, s.nt, s.real, jf, pi)
					got := cc.programFor(emb, jf)
					ep, err := emb.EmbedIsing(cc.prog.CouplingTemplate(), jf, d.opts.ImprovedRange)
					if err != nil {
						t.Fatal(err)
					}
					want := m.PrepareProgram(ep.Phys, d.opts.ImprovedRange)
					if got.N() != want.N() || got.EdgeScale() != want.EdgeScale() {
						t.Fatalf("%s: %d qubits at edge scale %v, EmbedIsing's %d at %v", label, got.N(), got.EdgeScale(), want.N(), want.EdgeScale())
					}
					fields := make([]float64, got.N())
					src := rng.New(int64(pi))
					for q := range fields {
						fields[q] = src.Gauss(0, 0.5)
					}
					gs, err := m.RunPrepared(got, fields, params, rng.New(int64(9+pi)))
					if err != nil {
						t.Fatal(err)
					}
					ws, err := m.RunPrepared(want, fields, params, rng.New(int64(9+pi)))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gs, ws) {
						t.Fatalf("%s: samples differ from EmbedIsing's program", label)
					}
					ep.Phys.H = fields
					for r := range gs {
						if ge, we := ep.Phys.Energy(gs[r].Spins), ep.Phys.Energy(ws[r].Spins); ge != we {
							t.Fatalf("%s read %d: energy %v, EmbedIsing's %v", label, r, ge, we)
						}
					}
					if pi == 3 {
						break // later slots repeat these layouts
					}
				}
			}
		}
		if len(d.chips) != c.chips {
			t.Errorf("%s: %d adjacencies built, want %d", c.name, len(d.chips), c.chips)
		}
	}
}

// Callers meeting a new placement together build its adjacency once, and
// each of their channels — the same H, compiled apart — gets the same program.
func TestConcurrentCallersBuildOneAdjacency(t *testing.T) {
	d := compiledTestDecoder(t, 4)
	in := compiledInstance(t, 11, modulation.QPSK, 4, 20)
	const callers = 8
	pps := make([]*anneal.PreparedProgram, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range pps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			cc, _, err := d.compileInto(new(CompiledChannel), in.Mod, in.H)
			if err != nil {
				t.Error(err)
				return
			}
			pps[i] = cc.programFor(cc.emb, d.opts.JF)
		}(i)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(d.chips) != 1 {
		t.Fatalf("%d adjacencies built for one placement and nonzero set", len(d.chips))
	}
	m := d.opts.Machine
	fields := make([]float64, pps[0].N())
	want, err := m.RunPrepared(pps[0], fields, d.opts.Params, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, pp := range pps[1:] {
		got, err := m.RunPrepared(pp, fields, d.opts.Params, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		if pp.EdgeScale() != pps[0].EdgeScale() || !reflect.DeepEqual(got, want) {
			t.Fatalf("caller %d's program differs from caller 0's", i+1)
		}
	}
}

// freshDecodeAllocs and compiledDecodeAllocs are what one 48×48 BPSK decode at
// Na = 1 allocates: 3 either way, the Outcome, its Bits and its Symbols, and
// none into a lent Outcome (Request.Answer). A raw channel lives only for its
// run, so its compile — the channel program and its coupling template, the
// CompiledChannel and its template list, the chip program and its coupler
// weights — is rebuilt in the pooled run scratch.
const freshDecodeAllocs, compiledDecodeAllocs = 3, 3

func decodeAllocs(t *testing.T, req func(*Decoder) Request) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	d, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := Budget{Params: anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 1}}
	r, src := req(d), rng.New(1)
	// A collection mid-measurement would empty the pooled scratch and count
	// its rebuild, so none runs while the decodes are counted.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(20, func() {
		if _, err := d.Decode(r, b, src); err != nil {
			t.Fatal(err)
		}
	})
}

// A fresh channel's decode allocates only what it returns: its compile is
// the run's, and the adjacency its program runs over the decoder's.
func TestFreshDecodeAllocs(t *testing.T) {
	in := compiledInstance(t, 5, modulation.BPSK, 48, 20)
	if got := decodeAllocs(t, func(*Decoder) Request { return Request{Mod: in.Mod, H: in.H, Y: in.Y} }); got != freshDecodeAllocs {
		t.Fatalf("raw 48×48 BPSK decode: %v allocations, want %d", got, freshDecodeAllocs)
	}
	lent := func(*Decoder) Request { return Request{Mod: in.Mod, H: in.H, Y: in.Y, Answer: new(Outcome)} }
	if got := decodeAllocs(t, lent); got != 0 {
		t.Fatalf("raw 48×48 BPSK decode into a lent Outcome: %v allocations, want 0", got)
	}
}

// A compiled channel's decode allocates only what it returns.
func TestCompiledDecodeAllocs(t *testing.T) {
	in := compiledInstance(t, 5, modulation.BPSK, 48, 20)
	got := decodeAllocs(t, func(d *Decoder) Request {
		cc, err := d.Compile(in.Mod, in.H)
		if err != nil {
			t.Fatal(err)
		}
		return Request{CC: cc, Y: in.Y}
	})
	if got != compiledDecodeAllocs {
		t.Fatalf("compiled 48×48 BPSK decode: %v allocations, want %d", got, compiledDecodeAllocs)
	}
	got = decodeAllocs(t, func(d *Decoder) Request {
		cc, err := d.Compile(in.Mod, in.H)
		if err != nil {
			t.Fatal(err)
		}
		return Request{CC: cc, Y: in.Y, Answer: new(Outcome)}
	})
	if got != 0 {
		t.Fatalf("compiled 48×48 BPSK decode into a lent Outcome: %v allocations, want 0", got)
	}
}

// Raw channels compiled one after another into one decoder's pooled run
// storage decode as each would on a decoder of its own, compiled once: the
// same bits, symbols, energies, chain breaks and sample distribution. The
// sequence changes N, the modulation and — with a real-valued channel's exact
// zero couplings — the chip, then returns to the first shape, so storage that
// carried anything from one channel to the next would show.
func TestRawChannelsShareRunStorage(t *testing.T) {
	b := Budget{Params: anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 4}}
	pooled, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		mod  modulation.Modulation
		nt   int
		real bool
	}{
		{modulation.BPSK, 48, false}, {modulation.QPSK, 8, false}, {modulation.QAM16, 16, false},
		{modulation.QPSK, 8, true}, {modulation.BPSK, 48, false},
	} {
		label := fmt.Sprintf("channel %d (%v %d×%d real=%t)", i, c.mod, c.nt, c.nt, c.real)
		in := compiledInstance(t, int64(90+i), c.mod, c.nt, 12)
		if c.real {
			in.H = realChannel(in.H)
		}
		got, err := pooled.Decode(truthReq(in), b, rng.New(int64(i)))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fresh, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		cc, _, err := fresh.compileInto(new(CompiledChannel), in.Mod, in.H)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Decode(Request{CC: cc, Y: in.Y, Truth: in}, b, rng.New(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		outcomesIdentical(t, label, got, want)
		if got.CompileMicros <= 0 || !sameOutcome(got, want) {
			t.Fatalf("%s: pooled raw decode %+v (compile %v µs), fresh compiled decode %+v", label, got, got.CompileMicros, want)
		}
	}
}

// BenchmarkFreshCompile times what a channel seen once costs before its first
// read on the DW2Q at 48×48 BPSK: the couplings, then its chip program over
// the decoder's adjacency.
func BenchmarkFreshCompile(b *testing.B) {
	d, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	in, err := mimo.Generate(rng.New(5), mimo.Config{Mod: modulation.BPSK, Nt: 48, Nr: 48, Channel: channel.Rayleigh{}, SNRdB: 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cc, _, err := d.compileInto(new(CompiledChannel), in.Mod, in.H)
		if err != nil {
			b.Fatal(err)
		}
		cc.programFor(cc.emb, d.opts.JF)
	}
}
