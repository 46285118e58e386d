package core

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"quamax/internal/anneal"
	"quamax/internal/linalg"
	"quamax/internal/modulation"
	"quamax/internal/rng"
	"quamax/internal/softout"
	"quamax/internal/telemetry"
)

// TestDecoderSurface pins the exported method set of *Decoder, so the next
// DecodeFooWithBar fails a test rather than a review: a new decode shape is a
// field of Request or Budget, not a method.
func TestDecoderSurface(t *testing.T) {
	want := []string{
		"BatchSlots", "ChannelCacheStats", "Compile", "CompileTracked",
		"Decode", "DecodeRun",
		// bench/ladder.go's four fillers of Decode/DecodeRun:
		"DecodeCompiledSharedRunWithParams", "DecodeCompiledSoftWithParams",
		"DecodeCompiledWithParams", "DecodeWithParams",
		"Options", "SetTelemetry",
	}
	sort.Strings(want)
	typ := reflect.TypeOf(&Decoder{})
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("exported methods of *Decoder:\n got %v\nwant %v", got, want)
	}
}

// TestDecodeRejectsMalformedRequests: every malformed in-process request is
// a plain error. Before the single validation point the rows marked "panic"
// took the process down (nil dereference, or reduction's length panic) —
// nothing between a sched worker and Solve recovers.
func TestDecodeRejectsMalformedRequests(t *testing.T) {
	d := smallDecoder(t, anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 2})
	other := smallDecoder(t, anneal.Params{AnnealTimeMicros: 1, NumAnneals: 2})
	in := genInstance(t, rng.New(401), modulation.QPSK, 2, 20)
	big := genInstance(t, rng.New(402), modulation.QPSK, 3, 20)
	cc, err := d.Compile(in.Mod, in.H)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.Compile(in.Mod, in.H)
	if err != nil {
		t.Fatal(err)
	}
	good := Request{Mod: in.Mod, H: in.H, Y: in.Y}
	win := NewWindow(in.Mod, in.H)
	src := rng.New(1)

	rows := []struct {
		name string
		req  Request
		run  bool
		src  *rng.Source
		want string
	}{
		{"neither CC nor H (panic)", Request{Y: in.Y}, false, src, "exactly one"},
		{"both CC and H", Request{CC: cc, Mod: in.Mod, H: in.H, Y: in.Y}, false, src, "exactly one"},
		{"both CC and a window", Request{CC: cc, Window: win, Y: in.Y}, false, src, "exactly one"},
		{"run item with nil CC (panic)", Request{Y: in.Y}, true, src, "exactly one"},
		{"unknown modulation (panic)", Request{Mod: modulation.Modulation(9), H: in.H, Y: in.Y}, false, src, "modulation"},
		{"empty channel (panic)", Request{Mod: in.Mod, H: linalg.NewMat(0, 0)}, false, src, "empty"},
		{"short y, raw (panic)", Request{Mod: in.Mod, H: in.H, Y: in.Y[:1]}, false, src, "y has 1 entries"},
		{"short y, compiled (panic)", Request{CC: cc, Y: in.Y[:1]}, false, src, "y has 1 entries"},
		{"short y, window", Request{Window: win, Y: in.Y[:1]}, false, src, "y has 1 entries"},
		{"short y in a run (panic)", Request{CC: cc, Y: nil}, true, src, "y has 0 entries"},
		{"truth of another size (panic)", Request{CC: cc, Y: in.Y, Truth: big}, false, src, "truth has 6 bits"},
		{"bad soft spec", Request{CC: cc, Y: in.Y, Soft: &softout.Spec{Clamp: -1}}, false, src, "clamp"},
		{"reverse with soft", Request{CC: cc, Y: in.Y, Reverse: true, Soft: &softout.Spec{}}, false, src, "soft"},
		{"reverse inside a run", Request{CC: cc, Y: in.Y, Reverse: true}, true, src, "share a run"},
		{"foreign compiled channel", Request{CC: foreign, Y: in.Y}, false, src, "different decoder"},
		{"foreign compiled channel in a run (panic on nil)", Request{CC: foreign, Y: in.Y}, true, src, "different decoder"},
		{"nil source", good, false, nil, "nil random source"},
		{"nil source, run", good, true, nil, "nil random source"},
	}
	for _, r := range rows {
		var err error
		if r.run {
			_, err = d.DecodeRun([]Request{good, r.req}, Budget{}, r.src)
		} else {
			_, err = d.Decode(r.req, Budget{}, r.src)
		}
		if err == nil || !strings.Contains(err.Error(), r.want) {
			t.Errorf("%s: error %v, want one mentioning %q", r.name, err, r.want)
		}
	}
	if _, err := d.DecodeRun(nil, Budget{}, src); err == nil {
		t.Error("empty run accepted")
	}
	if _, err := d.Decode(good, Budget{Params: anneal.Params{NumAnneals: 3}}, src); err == nil {
		t.Error("half-filled budget accepted")
	}
	if _, err := d.Decode(good, Budget{}, src); err != nil {
		t.Fatalf("the well-formed request the rows are built from fails: %v", err)
	}
}

// TestReverseReportsQuality: a reverse decode feeds the quality plane like
// every other decode (it used to be the one pipeline that never did), on the
// raw and on the compiled form, and — like every other decode — builds a
// Distribution iff it was given ground truth.
func TestReverseReportsQuality(t *testing.T) {
	d := smallDecoder(t, anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 7})
	rec := telemetry.New(telemetry.Config{})
	d.SetTelemetry(rec)
	in := genInstance(t, rng.New(403), modulation.QPSK, 3, 15)
	cc, err := d.Compile(in.Mod, in.H)
	if err != nil {
		t.Fatal(err)
	}
	var outs []*Outcome
	for _, req := range []Request{
		{Mod: in.Mod, H: in.H, Y: in.Y, Reverse: true},
		{CC: cc, Y: in.Y, Reverse: true},
		{CC: cc, Y: in.Y, Reverse: true, Truth: in},
	} {
		out, err := d.Decode(req, Budget{}, rng.New(8))
		if err != nil {
			t.Fatal(err)
		}
		if (out.Distribution != nil) != (req.Truth != nil) {
			t.Fatalf("Distribution %v for Truth %v", out.Distribution, req.Truth)
		}
		outs = append(outs, out)
	}
	outcomesIdentical(t, "reverse raw vs compiled", outs[1], outs[0])
	outcomesIdentical(t, "reverse with vs without truth", outs[2], outs[0])
	if total := outs[2].Distribution.Total; total != 7+1 {
		t.Fatalf("reverse distribution counts %d outcomes, want 7 reads + the seed", total)
	}
	q := rec.Snapshot().Quality[telemetry.Class(in.Mod.String(), in.Nt)]
	if q.Solves != 3 || q.Reads != 3*7 {
		t.Fatalf("quality plane saw %d solves / %d reads from 3 reverse decodes of 7 reads", q.Solves, q.Reads)
	}
	if int(q.ChainBreaks) != outs[0].BrokenChains+outs[1].BrokenChains+outs[2].BrokenChains {
		t.Fatalf("quality plane saw %d chain breaks, outcomes report %d+%d+%d",
			q.ChainBreaks, outs[0].BrokenChains, outs[1].BrokenChains, outs[2].BrokenChains)
	}
}

// TestReverseNoSeed: a channel no linear detector can invert is ErrNoSeed —
// the caller's cue to run forward — not a device error.
func TestReverseNoSeed(t *testing.T) {
	d := smallDecoder(t, anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 2})
	h := linalg.NewMat(2, 2) // all zero: singular for ZF
	req := Request{Mod: modulation.BPSK, H: h, Y: []complex128{1, -1}, Reverse: true}
	if _, err := d.Decode(req, Budget{}, rng.New(1)); !errors.Is(err, ErrNoSeed) {
		t.Fatalf("singular channel: %v, want ErrNoSeed", err)
	}
	req.Reverse = false
	if _, err := d.Decode(req, Budget{}, rng.New(1)); err != nil {
		t.Fatalf("forward decode of the same channel: %v", err)
	}
}

// TestRawRequestsBypassTheCache: a raw request compiles for its own call and
// leaves the LRU and its counters alone — one-shot channels must not evict
// coherence windows.
func TestRawRequestsBypassTheCache(t *testing.T) {
	d := compiledTestDecoder(t, 2)
	in := compiledInstance(t, 950, modulation.QPSK, 2, 20)
	req := Request{Mod: in.Mod, H: in.H, Y: in.Y}
	if _, err := d.Decode(req, Budget{}, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DecodeRun([]Request{req, req}, Budget{}, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	if st := d.ChannelCacheStats(); st.Hits+st.Misses+st.Evictions != 0 || len(d.channels.m) != 0 {
		t.Fatalf("raw requests touched the channel cache: %+v, %d entries", st, len(d.channels.m))
	}
}
