// Multiuser: the paper's motivating comparison on one machine — a 12-user
// BPSK uplink where the channel is square (Nt = Nr), swept across SNR, with
// QuAMax, zero-forcing, MMSE and the sphere decoder side by side. This is
// the Fig. 14 phenomenon in miniature: linear filters hit a BER floor when
// the channel is poorly conditioned, ML-grade detection does not.
//
//	go run ./examples/multiuser
package main

import (
	"fmt"
	"log"

	"quamax"
	"quamax/internal/detector"
)

const (
	users     = 12
	instances = 40
)

func main() {
	dec, err := quamax.NewDecoder(quamax.Options{})
	if err != nil {
		log.Fatal(err)
	}
	src := quamax.NewSource(7)

	fmt.Printf("%d-user BPSK, Nt=Nr, %d channel uses per SNR\n\n", users, instances)
	fmt.Printf("%8s  %12s  %12s  %12s  %12s\n", "SNR(dB)", "QuAMax BER", "Sphere BER", "ZF BER", "MMSE BER")

	for _, snr := range []float64{6, 8, 10, 12, 14} {
		var qmErr, sphErr, zfErr, mmseErr, totalBits int
		for i := 0; i < instances; i++ {
			inst, err := quamax.NewInstance(src, quamax.InstanceConfig{
				Mod: quamax.BPSK, Users: users, Antennas: users, SNRdB: snr,
				Channel: quamax.RayleighChannel(),
			})
			if err != nil {
				log.Fatal(err)
			}
			totalBits += len(inst.TxBits)

			out, err := dec.Decode(quamax.Request{Mod: inst.Mod, H: inst.H, Y: inst.Y}, quamax.Budget{}, src)
			if err != nil {
				log.Fatal(err)
			}
			qmErr += inst.BitErrors(out.Bits)

			if sp, err := detector.SphereDecode(inst.Mod, inst.H, inst.Y, detector.SphereOptions{}); err == nil {
				sphErr += inst.BitErrors(sp.Bits)
			}
			if zf, err := detector.ZeroForcing(inst.Mod, inst.H, inst.Y); err == nil {
				zfErr += inst.BitErrors(zf.Bits)
			} else {
				zfErr += len(inst.TxBits) // singular channel: ZF fails outright
			}
			if mm, err := detector.MMSE(inst.Mod, inst.H, inst.Y, inst.NoiseVariance()); err == nil {
				mmseErr += inst.BitErrors(mm.Bits)
			}
		}
		ber := func(e int) float64 { return float64(e) / float64(totalBits) }
		fmt.Printf("%8.0f  %12.2e  %12.2e  %12.2e  %12.2e\n",
			snr, ber(qmErr), ber(sphErr), ber(zfErr), ber(mmseErr))
	}
	fmt.Println("\nexpected: QuAMax tracks the sphere decoder (ML); ZF/MMSE trail at every SNR")
}
