// Quickstart: decode one 4-user QPSK uplink channel use with QuAMax.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"quamax"
)

func main() {
	// A decoder with the paper's defaults: simulated DW2Q chip, improved
	// coupler range, |J_F| = 4, Ta = Tp = 1 µs, 100 anneals per run.
	dec, err := quamax.NewDecoder(quamax.Options{})
	if err != nil {
		log.Fatal(err)
	}
	src := quamax.NewSource(42)

	// Four single-antenna users transmit QPSK to a 4-antenna AP at 20 dB.
	inst, err := quamax.NewInstance(src, quamax.InstanceConfig{
		Mod: quamax.QPSK, Users: 4, Antennas: 4, SNRdB: 20,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Truth is for evaluation only: it fills out.Distribution below.
	req := quamax.Request{Mod: inst.Mod, H: inst.H, Y: inst.Y, Truth: inst}
	out, err := dec.Decode(req, quamax.Budget{}, src)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("transmitted bits: %v\n", inst.TxBits)
	fmt.Printf("decoded bits:     %v\n", out.Bits)
	fmt.Printf("bit errors:       %d\n", inst.BitErrors(out.Bits))
	fmt.Printf("ML metric ‖y−Hv̂‖²: %.6f\n", out.Energy)
	fmt.Printf("per-anneal wall time: %.1f µs (Ta+Tp)\n", out.WallMicrosPerAnneal)

	// The solution distribution drives the paper's Eq. 9 / TTB analysis.
	d := out.Distribution
	fmt.Printf("distinct solutions over %d anneals: %d\n", d.Total, len(d.Solutions))
	fmt.Printf("expected BER after 1 anneal:  %.2e\n", d.ExpectedBER(1))
	fmt.Printf("expected BER after 10 anneals: %.2e\n", d.ExpectedBER(10))
	fmt.Printf("TTB(1e-6): %.1f µs\n", d.TTB(1e-6, out.WallMicrosPerAnneal, out.Pf))
}
