package fronthaul

import (
	"context"
	"net"
	"reflect"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/core"
	"quamax/internal/modulation"
	"quamax/internal/precoding"
	"quamax/internal/rng"
	"quamax/internal/softout"
)

// solveAnswer is every response field a caller can observe, whichever call
// shape and response type produced it (V and PerturbMod only on precodes, the
// LLR triple only on soft decodes).
type solveAnswer struct {
	Bits          []byte
	Energy        float64
	ComputeMicros float64
	Backend       string
	Batched       int
	LLR8          []int8
	Clamp         float64
	Saturated     int
	V             []complex128
	PerturbMod    modulation.Modulation
}

// observe copies the solveAnswer fields a response struct has, by name, so
// the pin does not depend on which response type a call returns.
func observe(resp any) (a solveAnswer) {
	from, to := reflect.ValueOf(resp).Elem(), reflect.ValueOf(&a).Elem()
	for i := 0; i < to.NumField(); i++ {
		if f := from.FieldByName(to.Type().Field(i).Name); f.IsValid() {
			to.Field(i).Set(f)
		}
	}
	return a
}

// TestSolveShapesPinned drives the real Client against a pool server over a
// pipe through the six call shapes {hard, soft, precode} × {inline H,
// registered handle} and pins both ends of each: the exact problem and
// deadline the dispatcher receives, and the exact answer the caller gets
// back. It uses only the public client API, so it holds across any
// re-framing of the wire underneath.
func TestSolveShapesPinned(t *testing.T) {
	const (
		users    = 2
		deadline = 1500 * time.Microsecond
		target   = 1e-3
		noiseVar = 0.04
	)
	mod := modulation.QPSK
	src := rng.New(1201)
	h := channel.Rayleigh{}.Generate(src, users, users)
	y := []complex128{1 + 2i, -0.5 - 0.25i}
	s := []complex128{1 + 1i, -1 + 1i}
	key := core.FingerprintChannel(mod, h)

	// fakeResult is the dispatcher's answer: a fixed bit pattern over the
	// problem's spins, distinct metadata, and LLRs that exercise both the
	// interior and the saturated end of the quantizer.
	fakeResult := func(p *backend.Problem) *backend.Result {
		res := &backend.Result{
			Bits: make([]byte, p.LogicalSpins()), Energy: 2.5, ComputeMicros: 12.25,
			Backend: "fake", Batched: 3,
		}
		for i := range res.Bits {
			res.Bits[i] = byte((i + 1) % 2)
		}
		if p.Soft {
			res.LLRs = make([]float64, len(res.Bits))
			for i, b := range res.Bits {
				res.LLRs[i] = float64(i+1) * p.LLRClamp / 3 * (2*float64(b) - 1)
			}
			res.LLRSaturated = 2
		}
		return res
	}

	vp := func(bits int) *precoding.Program {
		prog, err := precoding.Compile(mod, h, bits)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	vp2, vp0 := vp(2), vp(0)
	precodeProblem := func(prog *precoding.Program) *backend.Problem {
		p := prog.Problem(s)
		p.TargetBER = target
		return p
	}

	rows := []struct {
		name string
		// call issues the request; inline rows ignore the registered rc.
		call func(c *Client, rc *RemoteChannel) (any, error)
		want *backend.Problem
		// vp is the program a precode row's answer decodes through.
		vp *precoding.Program
	}{
		{
			name: "hard_inline",
			call: func(c *Client, _ *RemoteChannel) (any, error) {
				return c.DecodeQoS(mod, h, y, deadline, target)
			},
			want: &backend.Problem{Mod: mod, H: h, Y: y, TargetBER: target},
		},
		{
			name: "hard_handle",
			call: func(c *Client, rc *RemoteChannel) (any, error) {
				return c.DecodeWithChannel(rc, y, deadline, target)
			},
			want: &backend.Problem{Mod: mod, H: h, Y: y, TargetBER: target, ChannelKey: key},
		},
		{
			// No request clamp: the server default scales backend and wire alike.
			name: "soft_inline",
			call: func(c *Client, _ *RemoteChannel) (any, error) {
				return c.DecodeSoft(mod, h, y, SoftQoS{NoiseVar: noiseVar, Deadline: deadline, TargetBER: target})
			},
			want: &backend.Problem{Mod: mod, H: h, Y: y, TargetBER: target,
				Soft: true, NoiseVar: noiseVar, LLRClamp: softout.DefaultClamp},
		},
		{
			name: "soft_handle",
			call: func(c *Client, rc *RemoteChannel) (any, error) {
				return c.DecodeSoftWithChannel(rc, y, SoftQoS{NoiseVar: noiseVar, LLRClamp: 8,
					Deadline: deadline, TargetBER: target})
			},
			want: &backend.Problem{Mod: mod, H: h, Y: y, TargetBER: target, ChannelKey: key,
				Soft: true, NoiseVar: noiseVar, LLRClamp: 8},
		},
		{
			name: "precode_inline",
			call: func(c *Client, _ *RemoteChannel) (any, error) {
				return c.Precode(mod, h, s, 2, deadline, target)
			},
			want: precodeProblem(vp2),
			vp:   vp2,
		},
		{
			// Perturbation depth 0 selects the server default alphabet.
			name: "precode_handle",
			call: func(c *Client, rc *RemoteChannel) (any, error) {
				return c.PrecodeWithChannel(rc, s, 0, deadline, target)
			},
			want: precodeProblem(vp0),
			vp:   vp0,
		},
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			type seen struct {
				p        *backend.Problem
				deadline time.Duration
			}
			got := make(chan seen, 1)
			server := NewPoolServer(dispatcherFunc(func(ctx context.Context, p *backend.Problem, d time.Duration) (*backend.Result, error) {
				got <- seen{p, d}
				return fakeResult(p), nil
			}))
			cliConn, srvConn := net.Pipe()
			go server.handleConn(srvConn)
			client := NewClient(cliConn)
			defer client.Close()
			rc, err := client.RegisterChannel(mod, h)
			if err != nil {
				t.Fatal(err)
			}

			resp, err := row.call(client, rc)
			if err != nil {
				t.Fatal(err)
			}
			answer := observe(resp)
			disp := <-got
			if !reflect.DeepEqual(disp.p, row.want) {
				t.Errorf("dispatcher received\n %+v\nwant\n %+v", disp.p, row.want)
			}
			if disp.deadline != deadline {
				t.Errorf("dispatcher received deadline %v, want %v", disp.deadline, deadline)
			}

			res := fakeResult(row.want)
			want := solveAnswer{Energy: res.Energy, ComputeMicros: res.ComputeMicros,
				Backend: res.Backend, Batched: res.Batched}
			switch {
			case row.vp != nil:
				want.PerturbMod = row.vp.PerturbMod()
				want.V = precoding.PerturbationFromGrayBits(want.PerturbMod, res.Bits)
			case row.want.Soft:
				want.Bits = res.Bits
				want.Clamp = row.want.LLRClamp
				want.LLR8 = softout.AppendQuantized(nil, res.LLRs, want.Clamp)
				want.Saturated = res.LLRSaturated
			default:
				want.Bits = res.Bits
			}
			if !reflect.DeepEqual(answer, want) {
				t.Errorf("caller received\n %+v\nwant\n %+v", answer, want)
			}
		})
	}
}
