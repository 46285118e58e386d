// Golden pin of the decode pipeline: every (shape × variant × budget) the
// package serves is decoded from fixed seeds and compared, bit for bit,
// against testdata/pin_golden.json — bits, math.Float64bits of every energy
// and LLR, chain breaks, Pf and the ranked Distribution. The table and the
// golden file are the behaviour contract across refactors of the pipeline;
// only pinSolo and pinRun (the drivers at the bottom of this file) name
// decoder entry points. Regenerate with `go test ./internal/core -run
// TestPinGolden -update-pin` — a diff in the golden file is a behaviour
// change and must be explained.
package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"quamax/internal/anneal"
	"quamax/internal/channel"
	"quamax/internal/embedding"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/qubo"
	"quamax/internal/reduction"
	"quamax/internal/rng"
	"quamax/internal/softout"
)

var updatePin = flag.Bool("update-pin", false, "rewrite testdata/pin_golden.json from the current pipeline")

const pinGoldenPath = "testdata/pin_golden.json"

// pinVariant is one way of asking for a decode.
type pinVariant struct {
	name    string
	soft    bool
	reverse bool
	truth   bool
}

var pinVariants = []pinVariant{
	{name: "hard"},
	{name: "soft", soft: true},
	{name: "reverse", reverse: true},
	{name: "truth", truth: true},
	{name: "soft+truth", soft: true, truth: true},
	{name: "reverse+truth", reverse: true, truth: true},
}

// pinBudget is a run budget: the zero value is the decoder's configured
// operating point, the override moves every knob including |J_F|.
type pinBudget struct {
	name   string
	params anneal.Params
	jf     float64
}

var pinBudgets = []pinBudget{
	{name: "default"},
	{name: "override", jf: 9, params: anneal.Params{
		AnnealTimeMicros: 2, PauseTimeMicros: 1, PausePosition: 0.4, NumAnneals: 9}},
}

var pinShapes = []struct {
	name string
	mod  modulation.Modulation
	nt   int
	seed int64
}{
	{"bpsk48", modulation.BPSK, 48, 7001},
	{"qpsk8", modulation.QPSK, 8, 7002},
	{"qam16x4", modulation.QAM16, 4, 7003},
}

// pinItem is one slot of a pinned shared run.
type pinItem struct {
	shape string
	seed  int64
	soft  bool
	truth bool
}

// pinRuns are the shared runs: one at the headline size (the DW2Q's defects
// leave room for a single 48-spin clique, so it is a run of one) and one
// six-slot run mixing modulations (QPSK 8×8 and 16-QAM 4×4 both reduce to
// N=16), hard and soft items, with and without ground truth.
var pinRuns = []struct {
	name  string
	items []pinItem
}{
	{"n48", []pinItem{
		{shape: "bpsk48", seed: 7101, soft: true, truth: true},
	}},
	{"n16", []pinItem{
		{shape: "qpsk8", seed: 7111},
		{shape: "qam16x4", seed: 7112, soft: true},
		{shape: "qpsk8", seed: 7113, truth: true},
		{shape: "qam16x4", seed: 7114},
		{shape: "qpsk8", seed: 7115, soft: true, truth: true},
		{shape: "qam16x4", seed: 7116, soft: true},
	}},
}

// pinRank is one Distribution rank.
type pinRank struct {
	Energy    string
	Count     int
	BitErrors int
}

// pinOutcome is the golden record of one Outcome. Floats are stored as the
// hex of their IEEE-754 bits so equality is exact.
type pinOutcome struct {
	Bits           string
	Energy         string
	TxEnergy       string
	BrokenChains   int
	Pf             float64
	LLRs           []string  `json:",omitempty"`
	LLRSaturated   int       `json:",omitempty"`
	SoftCandidates int       `json:",omitempty"`
	Dist           []pinRank `json:",omitempty"`
	DistTotal      int       `json:",omitempty"`
}

func f64hex(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// pinRecord distills an Outcome. The Distribution is recorded only for
// decodes given ground truth: without it the ranks carry no bit-error
// information and no caller reads them.
func pinRecord(out *Outcome, truth bool) pinOutcome {
	rec := pinOutcome{
		Energy:         f64hex(out.Energy),
		TxEnergy:       f64hex(out.TxEnergy),
		BrokenChains:   out.BrokenChains,
		Pf:             out.Pf,
		LLRSaturated:   out.LLRSaturated,
		SoftCandidates: out.SoftCandidates,
	}
	for _, b := range out.Bits {
		rec.Bits += string('0' + rune(b))
	}
	for _, l := range out.LLRs {
		rec.LLRs = append(rec.LLRs, f64hex(l))
	}
	if truth && out.Distribution != nil {
		rec.DistTotal = out.Distribution.Total
		for _, s := range out.Distribution.Solutions {
			rec.Dist = append(rec.Dist, pinRank{f64hex(s.Energy), s.Count, s.BitErrors})
		}
	}
	return rec
}

func pinDecoder(t *testing.T) *Decoder {
	t.Helper()
	d, err := New(Options{
		Params:           anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 12},
		AmortizeParallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func pinInstance(t *testing.T, shape string, seed int64) *mimo.Instance {
	t.Helper()
	for _, s := range pinShapes {
		if s.name != shape {
			continue
		}
		if seed == 0 {
			seed = s.seed
		}
		in, err := mimo.Generate(rng.New(seed), mimo.Config{
			Mod: s.mod, Nt: s.nt, Nr: s.nt, Channel: channel.RandomPhase{}, SNRdB: 13,
		})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	t.Fatalf("unknown pin shape %q", shape)
	return nil
}

// TestPinGolden drives every pinned case through the raw-channel and the
// compiled-channel form of the request and requires both to reproduce the
// golden record exactly.
func TestPinGolden(t *testing.T) {
	golden := map[string][]pinOutcome{}
	if !*updatePin {
		raw, err := os.ReadFile(pinGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	visited := map[string]bool{}
	check := func(key string, got []pinOutcome) {
		t.Helper()
		visited[key] = true
		if *updatePin {
			if prev, ok := golden[key]; ok && !reflect.DeepEqual(prev, got) {
				t.Errorf("%s: raw and compiled forms disagree\n first %+v\nsecond %+v", key, prev, got)
			}
			golden[key] = got
			return
		}
		want, ok := golden[key]
		if !ok {
			t.Errorf("%s: no golden record", key)
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: outcome moved\n got %+v\nwant %+v", key, got, want)
		}
	}

	d := pinDecoder(t)
	for _, compiled := range []bool{false, true} {
		for _, shape := range pinShapes {
			in := pinInstance(t, shape.name, 0)
			for _, v := range pinVariants {
				for bi, b := range pinBudgets {
					if !pinSoloServed(v, b, compiled) {
						continue
					}
					key := fmt.Sprintf("solo/%s/%s/%s", shape.name, v.name, b.name)
					out, err := pinSolo(d, in, v, b, compiled, rng.New(shape.seed+int64(100*bi)))
					if err != nil {
						t.Fatalf("%s (compiled=%v): %v", key, compiled, err)
					}
					check(key, []pinOutcome{pinRecord(out, v.truth)})
				}
			}
		}
		for _, run := range pinRuns {
			ins := make([]*mimo.Instance, len(run.items))
			for i, it := range run.items {
				ins[i] = pinInstance(t, it.shape, it.seed)
			}
			for bi, b := range pinBudgets {
				key := fmt.Sprintf("run/%s/%s", run.name, b.name)
				outs, err := pinRun(d, ins, run.items, b, compiled, rng.New(7200+int64(bi)))
				if err != nil {
					t.Fatalf("%s (compiled=%v): %v", key, compiled, err)
				}
				recs := make([]pinOutcome, len(outs))
				for i, out := range outs {
					recs[i] = pinRecord(out, run.items[i].truth)
				}
				check(key, recs)
			}
		}
	}

	if *updatePin {
		raw, err := json.MarshalIndent(golden, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for key := range golden {
		if !visited[key] {
			t.Errorf("%s: golden record no longer checked by any case", key)
		}
	}
}

// TestPinReferencePipeline is the independent differential check: the
// paper's receive pipeline composed here from the package primitives —
// ReduceToIsing → EmbedIsing → Machine.Run → Unembed → minimum energy →
// PostTranslate — without touching the decoder's pipeline, its templates or
// its tally. The decoder must agree exactly, raw or compiled, default or
// overridden budget.
func TestPinReferencePipeline(t *testing.T) {
	d := pinDecoder(t)
	opts := d.Options()
	for _, shape := range pinShapes {
		in := pinInstance(t, shape.name, 0)
		for bi, b := range pinBudgets {
			params, jf := opts.Params, opts.JF
			if b.jf > 0 {
				params, jf = b.params, b.jf
			}
			seed := shape.seed + int64(100*bi)

			src := rng.New(seed)
			tie := src.Split() // a request's tie stream is split ahead of the run's
			logical := reduction.ReduceToIsing(in.Mod, in.H, in.Y)
			emb, err := embedding.Embed(opts.Graph, logical.N)
			if err != nil {
				t.Fatal(err)
			}
			ep, err := emb.EmbedIsing(logical, jf, opts.ImprovedRange)
			if err != nil {
				t.Fatal(err)
			}
			samples, err := opts.Machine.Run(ep.Phys, params, opts.ImprovedRange, src)
			if err != nil {
				t.Fatal(err)
			}
			var bestBits []byte
			bestE, broken := 0.0, 0
			for _, s := range samples {
				spins, br := emb.Unembed(s.Spins, tie)
				broken += br
				if e := logical.Energy(spins); bestBits == nil || e < bestE {
					bestE, bestBits = e, qubo.BitsFromSpins(spins)
				}
			}
			wantBits := in.Mod.PostTranslate(bestBits)

			for _, compiled := range []bool{false, true} {
				got, err := pinSolo(d, in, pinVariant{name: "hard"}, b, compiled, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Bits, wantBits) || got.Energy != bestE || got.BrokenChains != broken {
					t.Fatalf("%s/%s compiled=%v: decoder (%v, %v, %d broken) != reference pipeline (%v, %v, %d broken)",
						shape.name, b.name, compiled, got.Bits, got.Energy, got.BrokenChains, wantBits, bestE, broken)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Drivers: the only code in this file that names decoder entry points.
// ---------------------------------------------------------------------------

// pinSoloServed reports whether the pipeline serves the (variant, budget,
// channel form) combination: all of them. (The golden table was recorded
// through the sixteen pre-unification entry points, which served ground
// truth only on raw channels at the default budget and reverse decodes only
// on raw channels; those rows keep their records, the compiled forms now
// have to reproduce them too.)
func pinSoloServed(v pinVariant, b pinBudget, compiled bool) bool {
	return !(v.truth && b.jf > 0) // never recorded
}

func pinRequest(d *Decoder, in *mimo.Instance, soft, truth, compiled bool) (Request, error) {
	req := Request{Mod: in.Mod, H: in.H, Y: in.Y}
	if compiled {
		cc, err := d.Compile(in.Mod, in.H)
		if err != nil {
			return req, err
		}
		req = Request{CC: cc, Y: in.Y}
	}
	if soft {
		req.Soft = &softout.Spec{NoiseVar: in.NoiseVariance()}
	}
	if truth {
		req.Truth = in
	}
	return req, nil
}

func pinSolo(d *Decoder, in *mimo.Instance, v pinVariant, b pinBudget, compiled bool, src *rng.Source) (*Outcome, error) {
	req, err := pinRequest(d, in, v.soft, v.truth, compiled)
	if err != nil {
		return nil, err
	}
	req.Reverse = v.reverse
	return d.Decode(req, Budget{Params: b.params, JF: b.jf}, src)
}

func pinRun(d *Decoder, ins []*mimo.Instance, items []pinItem, b pinBudget, compiled bool, src *rng.Source) ([]*Outcome, error) {
	reqs := make([]Request, len(ins))
	for i, in := range ins {
		var err error
		if reqs[i], err = pinRequest(d, in, items[i].soft, items[i].truth, compiled); err != nil {
			return nil, err
		}
	}
	return d.DecodeRun(reqs, Budget{Params: b.params, JF: b.jf}, src)
}
