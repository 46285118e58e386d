package sched

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"quamax/internal/anneal"
	"quamax/internal/backend"
	"quamax/internal/channel"
	"quamax/internal/core"
	"quamax/internal/detector"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/precoding"
	"quamax/internal/qos"
	"quamax/internal/rng"
	"quamax/internal/softout"
	"quamax/internal/trace"
)

// The stop rules' proof is a count, not an argument. A stopped SA decode is
// an exact prefix of the uncut one (anneal's prefix test), so an armed decode
// can differ from the uncut decode of the same request on the same stream only
// when a restart past the stop had lower energy. This test serves a seeded
// corpus shaped like the benchmark's cells_mixed_qos traffic — 8×8 QPSK over
// trace.GenerateMultiUser's 16 Zipf cells, Ricean K = 3, SNR 15–30 dB and
// hard/soft/precode class dealt by user ID, target BER 1e-3, 50 ms deadline —
// through the scheduler's own admit and the two backends it routes to, the
// classical denials once armed and once uncut, and counts: restarts run
// against restarts configured, every answer the rule changed (each must be a
// strictly lower uncut energy), and per tier the BER of what was served beside
// the linear and the exact answer. It fails above the ceilings below, which is
// what fixes qos.StopRepeats.
//
// The device tier's noise radius gets the same treatment. A member of a shared
// run that stops scored the exact prefix of its uncut self (core's prefix
// test), so the same argument holds per member: the corpus's fitted decodes
// are regrouped, in corpus order, into solo runs (Annealer.Solve, which arms
// the radius alike) and shared runs of 3, 5, 7 and 10 members, each run once
// armed as admit armed it and once with the radii stripped, on the same
// stream. Counted per run size: slot-reads run against
// the cap (run budget × members) and against what the planner asked for,
// device reads charged (the most any member ran), members that never settled,
// answers changed, served BER both ways, and — on the soft members that
// stopped, at or past the softout.MinEnsemble floor — how many LLR signs agree
// with the uncut ensemble's. The ceilings below fix qos.StopRadiusDeviations
// and softout.MinEnsemble.
//
// Admission certifies before it plans: a request whose budgeted sphere search
// finishes is answered there, proved ML — a soft one with its exact clamped
// max-log LLRs — and never reaches a tier. The stop-rule rows above keep the
// population they were fixed on — every request as the planner sizes it
// (plan), which is exactly what a request meets when its search runs out of
// nodes — and a certificate table sits beside them: per class (hard, soft,
// precode) and per budget 10², 10³, 10⁴, the certified share, the node
// quantiles and the mean cost of one search, every proved answer checked
// against the exact ML answer and every proved soft answer's LLRs against
// max-log over all 2¹⁶ candidate vectors; then how the device tier's ensemble
// LLRs compare with the exact ones on the same soft requests; then the BER
// admission serves per tier (certificate, device, classical) beside the ZF and
// ML answers to the same requests; then a 48×48 BPSK row at 10 / 15 / 20 dB,
// the paper's headline shape. The certificate table is what fixes
// qos.CertifyNodes.
const (
	corpusRequests = 1400
	// Ceilings: answers the rule may change, and the share of the configured
	// restarts it may still run (6.9% measured; 11.3% when a restart that
	// returns the best configuration with an energy one bit lower restarts
	// the count instead of adding to it).
	corpusChangedCeiling   = 0.002
	corpusSARestartCeiling = 0.10
	// Device tier: how many fitted decodes are regrouped (a multiple of every
	// run size), the share of answers the radius may change, the share of the
	// cap's slot-reads a run of three or more may still run, how far the served
	// BER may sit above the uncut run's, and the LLR signs that must survive.
	corpusDeviceDecodes      = 420
	corpusDeviceChanged      = 0.01
	corpusDeviceReadsCeiling = 0.60
	corpusDeviceBERSlack     = 0.002
	corpusLLRSignFloor       = 0.97
	// The share of hard and of soft decodes the certificate must answer at
	// qos.CertifyNodes.
	corpusCertifiedHardFloor = 0.99
	corpusCertifiedSoftFloor = 0.99
)

// corpusRequest is one generated request with its ground truth.
type corpusRequest struct {
	p    *backend.Problem
	bits []byte // transmitted data bits; nil for a precode
	// precodes: the compiled program and the user symbols, to evaluate γ.
	vp *precoding.Program
	s  []complex128
}

// corpus generates the request mix the way bench/ deals it (user ID decides
// SNR and class) and the way the fronthaul server builds problems from it
// (hard decodes carry no noise variance; soft ones do; precodes go through
// their compiled program).
func corpus(t *testing.T, seed int64, n int) []corpusRequest {
	t.Helper()
	src := rng.New(seed)
	tr, err := trace.GenerateMultiUser(src.Split(), trace.MultiUserConfig{
		Cells: 16, Users: 256, Requests: n, ZipfS: 1.1,
		Antennas: 8, CellUsers: 8, WindowUses: 16,
		RiceanK: 3, Doppler: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	mod, nt := modulation.QPSK, 8
	snrs := []float64{15, 20, 25, 30}
	dsrc := src.Split()
	programs := map[*linalg.Mat]*precoding.Program{}
	windows := map[*linalg.Mat]*core.Window{}
	out := make([]corpusRequest, 0, n)
	for _, r := range tr.Requests {
		sigma := channel.NoiseSigma(mod, nt, snrs[r.User%len(snrs)])
		bits := dsrc.Bits(nt * mod.BitsPerSymbol())
		symbols := mod.MapGrayVector(bits)
		var req corpusRequest
		switch slot := r.User * 7 % 10; {
		case slot < 1: // precode
			vp := programs[r.H]
			if vp == nil {
				if vp, err = precoding.Compile(mod, r.H, 0); err != nil {
					t.Fatal(err)
				}
				programs[r.H] = vp
			}
			req = corpusRequest{p: vp.Problem(symbols), vp: vp, s: symbols}
		default:
			y := channel.AddAWGN(dsrc, linalg.MulVec(r.H, symbols), sigma)
			if windows[r.H] == nil {
				windows[r.H] = core.NewWindow(mod, r.H)
			}
			req = corpusRequest{bits: bits, p: &backend.Problem{Mod: mod, H: r.H, Y: y, Window: windows[r.H]}}
			if slot < 3 { // soft
				req.p.Soft, req.p.NoiseVar = true, sigma*sigma
			}
		}
		req.p.TargetBER = 1e-3
		out = append(out, req)
	}
	return out
}

// tierTally is one tier's decodes: what the rule did (classical tier only) and
// the bit errors of each answer to the same requests.
type tierTally struct {
	decodes, changed    int
	readsRun, readsPlan int
	bits                int
	errServed, errUncut int
	errZF, errML        int
	zfWins              int // ZF strictly closer to y than the served answer
}

func bitErrs(a, b []byte) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

func TestStopRuleCorpus(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("serves a 1,400-request corpus, the classical tier twice")
	}
	qpu, err := backend.NewAnnealer("qpu", core.Options{
		JF: 4, ImprovedRange: true, AmortizeParallel: true,
		Params: anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	sa := backend.NewClassicalSA("sa", 128, 100)
	planner, err := qos.NewPlanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Pool: []backend.Backend{qpu}, Fallback: sa, Planner: planner, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	var device, classical, precodeSA tierTally // the stop rules' tiers, as planned
	var served [3]tierTally                    // what admission serves: certificate, device, classical
	var certPrecodes int
	var gammaArmed, gammaUncut, gammaZF, gammaCert, gammaCertML float64
	var fitted []corpusRequest // the device tier's decodes, as planned
	var certs certTable
	var ensemble ensembleTally
	for i, cr := range corpus(t, 20261004, corpusRequests) {
		certs.observe(t, s, cr)
		v := s.admit(cr.p, 50*time.Millisecond)
		q, denied := planned(s, cr.p, 50*time.Millisecond)
		if v.proved == nil && (v.route != routeQueue && v.route != routePlannerDenied ||
			(v.route == routePlannerDenied) != denied || !reflect.DeepEqual(v.p, q)) {
			t.Fatalf("request %d: the search ran out of nodes and admission routed %v with %+v, the planner alone %+v (denied=%v)", i, v.route, v.p, q, denied)
		}
		if (q.StopRepeats == qos.StopRepeats) != denied || (!denied && q.StopRepeats != 0) {
			t.Fatalf("request %d (denied=%v): repeat rule %d", i, denied, q.StopRepeats)
		}
		seed := int64(1000 + i)
		var planRes *backend.Result // what the planned tier answered, armed
		switch {
		case !denied && cr.vp != nil:
			// A fitted precode: nothing armed, no bits to score.
		case !denied:
			// The device tier runs as planned, radius armed; it is here for its BER.
			res, err := qpu.Solve(ctx, q, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			device.score(t, q, cr.bits, res, res)
			fitted = append(fitted, corpusRequest{p: q, bits: cr.bits})
			planRes = res
			if v.proved != nil && cr.p.Soft {
				ensemble.observe(res.LLRs, v.proved.LLRs, softout.Spec{NoiseVar: cr.p.NoiseVar, Clamp: cr.p.LLRClamp})
			}
		default:
			uncut := *q
			uncut.StopRepeats = 0
			armed, err := sa.Solve(ctx, q, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			full, err := sa.Solve(ctx, &uncut, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if full.Reads != full.ReadsPlanned || armed.ReadsPlanned != full.ReadsPlanned || armed.Reads > full.Reads {
				t.Fatalf("request %d: armed ran %d/%d restarts, uncut %d/%d", i, armed.Reads, armed.ReadsPlanned, full.Reads, full.ReadsPlanned)
			}
			tally := &classical
			if cr.vp != nil {
				tally = &precodeSA
			}
			tally.readsRun += armed.Reads
			tally.readsPlan += armed.ReadsPlanned
			if !slices.Equal(armed.Bits, full.Bits) {
				tally.changed++
				// The one way a prefix can answer differently: a later restart won.
				if !(full.Energy < armed.Energy) {
					t.Errorf("request %d: the rule changed the answer without a better later restart: stopped after %d of %d at energy %v, uncut energy %v",
						i, armed.Reads, armed.ReadsPlanned, armed.Energy, full.Energy)
				}
				t.Logf("request %d: stopped after %d of %d restarts at energy %.4f; a later restart reached %.4f",
					i, armed.Reads, armed.ReadsPlanned, armed.Energy, full.Energy)
			}
			if cr.vp != nil {
				tally.decodes++
				mod := cr.vp.PerturbMod()
				gammaArmed += cr.vp.Gamma(cr.s, precoding.AppendPerturbationFromGrayBits(nil, mod, armed.Bits))
				gammaUncut += cr.vp.Gamma(cr.s, precoding.AppendPerturbationFromGrayBits(nil, mod, full.Bits))
				gammaZF += cr.vp.ZFGamma(cr.s)
			} else {
				tally.score(t, q, cr.bits, armed, full)
			}
			planRes = armed
		}

		// What admission serves.
		switch {
		case cr.vp != nil:
			if v.proved != nil {
				certPrecodes++
				gamma := cr.vp.Gamma(cr.s, precoding.AppendPerturbationFromGrayBits(nil, cr.vp.PerturbMod(), v.proved.Bits))
				ml, err := detector.SphereDecode(cr.p.Mod, cr.p.H, cr.p.Y, detector.SphereOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !relEqual(gamma, v.proved.Energy) || !relEqual(gamma, ml.Metric) {
					t.Errorf("request %d: certified precode γ %v reported as %v; the exact search's γ is %v", i, gamma, v.proved.Energy, ml.Metric)
				}
				gammaCert += gamma
				gammaCertML += ml.Metric
			}
		case v.proved != nil:
			served[0].score(t, cr.p, cr.bits, v.proved, v.proved)
		case denied:
			served[2].score(t, q, cr.bits, planRes, planRes)
		default:
			served[1].score(t, q, cr.bits, planRes, planRes)
		}
	}

	ber := func(errs, bits int) float64 { return float64(errs) / float64(max(bits, 1)) }
	share := func(a, b int) float64 { return float64(a) / float64(max(b, 1)) }
	for _, tier := range []struct {
		name string
		*tierTally
	}{{"device", &device}, {"classical", &classical}} {
		t.Logf("%s tier as planned: %d decodes; BER served %.4f, uncut %.4f, zero-forcing %.4f (ZF strictly beats the served answer on %d), exact ML %.4f",
			tier.name, tier.decodes, ber(tier.errServed, tier.bits), ber(tier.errUncut, tier.bits), ber(tier.errZF, tier.bits), tier.zfWins, ber(tier.errML, tier.bits))
	}
	certs.log(t)
	t.Logf("device ensemble against the certificate, %d soft requests: LLR signs agree on %d of %d bits (%.4f); the ensemble clamps %d bits the exact search leaves below the clamp, and the exact search clamps %d the ensemble does not",
		ensemble.requests, ensemble.agree, ensemble.bits, share(ensemble.agree, ensemble.bits), ensemble.overconfident, ensemble.underconfident)
	var all tierTally
	for k, name := range []string{"certificate", "device", "classical"} {
		tt := served[k]
		t.Logf("served by the %-11s tier: %4d decodes; BER served %.4f, zero-forcing %.4f, exact ML %.4f",
			name, tt.decodes, ber(tt.errServed, tt.bits), ber(tt.errZF, tt.bits), ber(tt.errML, tt.bits))
		all.decodes, all.bits = all.decodes+tt.decodes, all.bits+tt.bits
		all.errServed, all.errZF, all.errML = all.errServed+tt.errServed, all.errZF+tt.errZF, all.errML+tt.errML
	}
	t.Logf("served, all decodes: %d; BER served %.4f, zero-forcing %.4f, exact ML %.4f; certified precodes %d, mean γ %.4f (exact search %.4f)",
		all.decodes, ber(all.errServed, all.bits), ber(all.errZF, all.bits), ber(all.errML, all.bits),
		certPrecodes, gammaCert/float64(max(certPrecodes, 1)), gammaCertML/float64(max(certPrecodes, 1)))
	if c := served[0]; c.decodes == 0 || c.errServed != c.errML {
		t.Errorf("certificate tier: %d bit errors served over %d decodes, exact ML %d: a proved answer is an ML answer", c.errServed, c.decodes, c.errML)
	}
	if hard := certs.at(certHard, qos.CertifyNodes); share(hard.proved, hard.requests) < corpusCertifiedHardFloor {
		t.Errorf("the certificate answered %d of %d hard decodes at %d nodes, floor %.2f", hard.proved, hard.requests, qos.CertifyNodes, corpusCertifiedHardFloor)
	}
	if soft := certs.at(certSoft, qos.CertifyNodes); share(soft.proved, soft.requests) < corpusCertifiedSoftFloor || soft.llrs == 0 {
		t.Errorf("the certificate answered %d of %d soft decodes at %d nodes, floor %.2f", soft.proved, soft.requests, qos.CertifyNodes, corpusCertifiedSoftFloor)
	}
	bpsk48Row(t)
	t.Logf("classical tier: restarts run/configured %d/%d = %.3f, answers changed %d of %d",
		classical.readsRun, classical.readsPlan, share(classical.readsRun, classical.readsPlan), classical.changed, classical.decodes)
	t.Logf("denied precodes: %d, restarts run/configured %d/%d, answers changed %d, mean γ armed %.4f, uncut %.4f, γ/γ_ZF %.4f → %.4f",
		precodeSA.decodes, precodeSA.readsRun, precodeSA.readsPlan, precodeSA.changed,
		gammaArmed/float64(max(precodeSA.decodes, 1)), gammaUncut/float64(max(precodeSA.decodes, 1)), gammaUncut/gammaZF, gammaArmed/gammaZF)

	if classical.decodes < 200 || device.decodes < 500 || precodeSA.decodes < 50 {
		t.Errorf("corpus no longer covers the tiers: %d classical, %d device, %d denied precodes", classical.decodes, device.decodes, precodeSA.decodes)
	}
	if c := share(classical.changed, classical.decodes); c > corpusChangedCeiling {
		t.Errorf("classical tier: the rule changed %d of %d answers (%.4f), ceiling %.4f", classical.changed, classical.decodes, c, corpusChangedCeiling)
	}
	if r := share(classical.readsRun, classical.readsPlan); r > corpusSARestartCeiling {
		t.Errorf("classical tier ran %.3f of its restarts, ceiling %.2f", r, corpusSARestartCeiling)
	}
	if math.Abs(gammaArmed-gammaUncut) > 0.01*gammaUncut {
		t.Errorf("denied precodes: mean γ moved from %.4f to %.4f under the repeat rule", gammaUncut, gammaArmed)
	}

	if len(fitted) < corpusDeviceDecodes {
		t.Fatalf("corpus holds %d fitted decodes, the device rows need %d", len(fitted), corpusDeviceDecodes)
	}
	for _, size := range []int{1, 3, 5, 7, 10} {
		row := deviceRow(t, qpu, fitted[:corpusDeviceDecodes], size)
		t.Logf("device tier, runs of %2d: slot-reads run/cap/planned %d/%d/%d = %.3f of cap, %.3f of planned; device reads charged %d of %d = %.3f; never settled %d of %d; answers changed %d; BER armed %.4f, uncut %.4f; soft members stopped %d, LLR signs kept %d of %d = %.4f",
			size, row.run, row.cap, row.planned, share(row.run, row.cap), share(row.run, row.planned),
			row.charged, row.chargedCap, share(row.charged, row.chargedCap), row.unsettled, row.members, row.changed,
			ber(row.errArmed, row.bits), ber(row.errUncut, row.bits), row.softStopped, row.signsKept, row.signs, share(row.signsKept, row.signs))
		if row.members < corpusDeviceDecodes*9/10 {
			t.Errorf("runs of %d: only %d of %d fitted decodes were batchable", size, row.members, corpusDeviceDecodes)
		}
		if c := share(row.changed, row.members); c > corpusDeviceChanged {
			t.Errorf("runs of %d: the radius changed %d of %d answers (%.4f), ceiling %.4f", size, row.changed, row.members, c, corpusDeviceChanged)
		}
		if r := share(row.run, row.cap); size >= 3 && r > corpusDeviceReadsCeiling {
			t.Errorf("runs of %d ran %.3f of their cap's slot-reads, ceiling %.2f", size, r, corpusDeviceReadsCeiling)
		}
		if a, u := ber(row.errArmed, row.bits), ber(row.errUncut, row.bits); a > u+corpusDeviceBERSlack {
			t.Errorf("runs of %d: served BER %.4f armed, %.4f uncut", size, a, u)
		}
		if k := share(row.signsKept, row.signs); row.signs == 0 || k < corpusLLRSignFloor {
			t.Errorf("runs of %d: %d of %d LLR signs of stopped soft members agree with the uncut ensemble (%.4f), floor %.2f", size, row.signsKept, row.signs, k, corpusLLRSignFloor)
		}
	}
}

// deviceTally is the device tier's fitted decodes served as shared runs of one
// size, armed and uncut.
type deviceTally struct {
	members, unsettled, changed int
	run, cap, planned           int // slot-reads: run, run budget × members, the members' own plans
	charged, chargedCap         int // device reads: the most any member ran, the run budget
	bits, errArmed, errUncut    int
	softStopped                 int
	signs, signsKept            int // LLR entries of stopped soft members; those whose sign the uncut ensemble shares
}

// deviceRow serves decodes as consecutive shared runs of size members, each
// run armed and with the radii stripped on one stream, and tallies what the
// radius did. A stopped member differs from its uncut self only when a read
// past the stop had lower energy; anything else fails the test.
func deviceRow(t *testing.T, qpu *backend.Annealer, decodes []corpusRequest, size int) (row deviceTally) {
	t.Helper()
next:
	for g := 0; g+size <= len(decodes); g += size {
		armedPs, uncutPs := make([]*backend.Problem, size), make([]*backend.Problem, size)
		for i, cr := range decodes[g : g+size] {
			if !backend.Batchable(decodes[g].p, cr.p) {
				continue next // mixed operating points: the scheduler would not gather them either
			}
			stripped := *cr.p
			stripped.StopRadius = 0
			armedPs[i], uncutPs[i] = cr.p, &stripped
			row.planned += cr.p.Anneal.NumAnneals
		}
		seed := int64(5000 + 100*size + g)
		armed, uncut := solveRun(t, qpu, armedPs, seed), solveRun(t, qpu, uncutPs, seed)
		budget, ran := uncut[0].ReadsPlanned, 0
		for i, a := range armed {
			u, p, bits := uncut[i], armedPs[i], decodes[g+i].bits
			if u.Reads != budget || a.ReadsPlanned != budget || a.Reads > budget {
				t.Fatalf("run at %d member %d: armed ran %d/%d reads, uncut %d/%d", g, i, a.Reads, a.ReadsPlanned, u.Reads, budget)
			}
			row.members++
			row.run += a.Reads
			row.cap += budget
			ran = max(ran, a.Reads)
			if a.Reads == budget && a.Energy > p.StopRadius {
				row.unsettled++
			}
			if !slices.Equal(a.Bits, u.Bits) {
				row.changed++
				if !(u.Energy < a.Energy) {
					t.Errorf("run at %d member %d: the radius changed the answer without a better later read: stopped after %d of %d at energy %v, uncut energy %v",
						g, i, a.Reads, budget, a.Energy, u.Energy)
				}
			}
			row.bits += len(bits)
			row.errArmed += bitErrs(a.Bits, bits)
			row.errUncut += bitErrs(u.Bits, bits)
			if p.Soft && a.Reads < budget {
				row.softStopped++
				for k, l := range a.LLRs {
					row.signs++
					if (l > 0) == (u.LLRs[k] > 0) {
						row.signsKept++
					}
				}
			}
		}
		row.charged += ran
		row.chargedCap += budget
	}
	return row
}

// solveRun serves ps as the scheduler would: one problem solo, more as one
// shared run.
func solveRun(t *testing.T, qpu *backend.Annealer, ps []*backend.Problem, seed int64) []*backend.Result {
	t.Helper()
	if len(ps) == 1 {
		res, err := qpu.Solve(context.Background(), ps[0], rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return []*backend.Result{res}
	}
	res, err := qpu.SolveBatch(context.Background(), ps, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// certBudgets are the node budgets the certificate table reads, qos.CertifyNodes
// among them.
var certBudgets = []int{100, 1_000, 10_000}

// The certificate table's request classes.
const (
	certHard = iota
	certSoft
	certPrecode
	certClasses
)

// certRow is one class at one budget: how many of its requests a search of
// that many nodes proved, the nodes each search visited, the time a search
// took, and — over the proved decodes — the bit errors of the certified and
// of the exact ML answer, and the soft ones' LLRs and how many clamp.
type certRow struct {
	requests, proved     int
	nodes                []float64
	cost                 time.Duration
	bits, errCert, errML int
	llrs, clamped        int
}

// certTable is the certificate table, rows[class][budget index].
type certTable struct{ rows [certClasses][]certRow }

// certTimings is how many times each search is repeated on a warm scratch to
// time it.
const certTimings = 8

// observe searches one corpus request at every budget through the
// scheduler's own estimator — a soft request with its own spec — and checks
// each proved answer against the exact ML answer (an unbudgeted sphere
// decode): equal metrics, or the search proved something false; a proved soft
// answer's LLRs must be enumeration's. Each search is then timed on the
// request's compiled program.
func (c *certTable) observe(t *testing.T, s *Scheduler, cr corpusRequest) {
	t.Helper()
	class := certHard
	var spec *softout.Spec
	switch {
	case cr.vp != nil:
		class = certPrecode
	case cr.p.Soft:
		class = certSoft
		spec = &softout.Spec{NoiseVar: cr.p.NoiseVar, Clamp: cr.p.LLRClamp}
	}
	ml, err := detector.SphereDecode(cr.p.Mod, cr.p.H, cr.p.Y, detector.SphereOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.rows[class] == nil {
		c.rows[class] = make([]certRow, len(certBudgets))
	}
	est := cr.p.Window.SphereFor(cr.p.Mod, cr.p.H)
	prog := detector.CompileSphere(cr.p.Mod, cr.p.H)
	var scratch detector.SphereScratch
	var clip float64
	if spec != nil {
		clip = spec.ClipRadius()
	}
	var exact []float64 // enumeration's LLRs, once a soft search proves
	for b, budget := range certBudgets {
		e := qos.EstimateInto(est, cr.p.Y, budget, spec, nil, nil)
		row := &c.rows[class][b]
		row.requests++
		row.nodes = append(row.nodes, float64(e.Nodes))
		prog.Certify(cr.p.Y, budget, clip, &scratch)
		start := time.Now()
		for range certTimings {
			prog.Certify(cr.p.Y, budget, clip, &scratch)
		}
		row.cost += time.Since(start) / certTimings
		if !e.Proved {
			continue
		}
		row.proved++
		if !relEqual(e.Metric, ml.Metric) {
			t.Errorf("a search of %d nodes proved metric %v; the exact search's is %v", budget, e.Metric, ml.Metric)
		}
		if cr.bits != nil {
			row.bits += len(cr.bits)
			row.errCert += bitErrs(e.Bits, cr.bits)
			row.errML += bitErrs(ml.Bits, cr.bits)
		}
		if spec == nil {
			continue
		}
		if exact == nil {
			exact, _ = enumeratedLLRs(cr.p, *spec)
		}
		for k, l := range e.LLRs {
			if math.Abs(l-exact[k]) > 1e-6 {
				t.Fatalf("a search of %d nodes proved LLR %v for bit %d; enumeration over every leaf gives %v (all: %v against %v)", budget, l, k, exact[k], e.LLRs, exact)
			}
		}
		row.llrs += len(e.LLRs)
		row.clamped += e.LLRSaturated
	}
}

// at returns class's row at budget, which must be one of certBudgets.
func (c *certTable) at(class, budget int) certRow {
	return c.rows[class][slices.Index(certBudgets, budget)]
}

func (c *certTable) log(t *testing.T) {
	t.Helper()
	for class, name := range []string{"hard", "soft", "precode"} {
		for b, budget := range certBudgets {
			row := c.rows[class][b]
			t.Logf("certificate, %-7s at %5d nodes: %4d of %4d = %.4f; nodes p50 %.0f, p90 %.0f, p99 %.0f, max %.0f, mean %.0f; %.2f µs per search; certified BER %.4f, exact ML %.4f on the same decodes; LLRs equal to enumeration %d, clamped %d",
				name, budget, row.proved, row.requests, float64(row.proved)/float64(max(row.requests, 1)),
				metrics.Percentile(row.nodes, 50), metrics.Percentile(row.nodes, 90), metrics.Percentile(row.nodes, 99), metrics.Percentile(row.nodes, 100), metrics.Mean(row.nodes),
				float64(row.cost)/float64(time.Microsecond)/float64(max(row.requests, 1)),
				float64(row.errCert)/float64(max(row.bits, 1)), float64(row.errML)/float64(max(row.bits, 1)), row.llrs, row.clamped)
		}
	}
}

// ensembleTally compares the device tier's ensemble LLRs with the exact ones
// the certificate serves for the same soft requests: sign agreement, and the
// bits one side clamps while the other leaves below the clamp.
type ensembleTally struct {
	requests, bits, agree         int
	overconfident, underconfident int
}

func (e *ensembleTally) observe(ensemble, exact []float64, spec softout.Spec) {
	clamp := spec.WithDefaults().Clamp
	e.requests++
	for k, x := range exact {
		e.bits++
		if (ensemble[k] > 0) == (x > 0) {
			e.agree++
		}
		switch ens, ex := math.Abs(ensemble[k]) == clamp, math.Abs(x) == clamp; {
		case ens && !ex:
			e.overconfident++
		case ex && !ens:
			e.underconfident++
		}
	}
}

// bpsk48Row sizes the certificate on the paper's headline shape, which the
// corpus does not carry: 48×48 BPSK over Rayleigh channels at 10, 15 and
// 20 dB, forty instances each, searched at qos.CertifyNodes. It reports what
// the search costs there and asserts nothing: headline_bpsk48 carries no
// target BER, so admission never searches it.
func bpsk48Row(t *testing.T) {
	t.Helper()
	const instances = 40
	src := rng.New(48)
	for _, snr := range []float64{10, 15, 20} {
		var nodes []float64
		var factor, search time.Duration
		proved, bits, errCert, errZF := 0, 0, 0, 0
		for i := 0; i < instances; i++ {
			in, err := mimo.Generate(src, mimo.Config{Mod: modulation.BPSK, Nt: 48, Nr: 48, Channel: channel.Rayleigh{}, SNRdB: snr})
			if err != nil {
				t.Fatal(err)
			}
			t0 := time.Now()
			est := detector.CompileSphere(in.Mod, in.H)
			t1 := time.Now()
			e := qos.EstimateInto(est, in.Y, qos.CertifyNodes, nil, nil, nil)
			factor, search = factor+t1.Sub(t0), search+time.Since(t1)
			nodes = append(nodes, float64(e.Nodes))
			if !e.Proved {
				continue
			}
			zf, err := detector.ZeroForcing(in.Mod, in.H, in.Y)
			if err != nil {
				t.Fatal(err)
			}
			proved++
			bits += len(in.TxBits)
			errCert += bitErrs(e.Bits, in.TxBits)
			errZF += bitErrs(zf.Bits, in.TxBits)
		}
		us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / instances }
		t.Logf("certificate, 48×48 BPSK at %2.0f dB: %d of %d at %d nodes; nodes p50 %.0f, p99 %.0f, max %.0f; %.1f µs per search, %.0f µs per factorization; certified BER %.4f, zero-forcing %.4f on the same decodes",
			snr, proved, instances, qos.CertifyNodes, metrics.Percentile(nodes, 50), metrics.Percentile(nodes, 99), metrics.Percentile(nodes, 100),
			us(search), us(factor), float64(errCert)/float64(max(bits, 1)), float64(errZF)/float64(max(bits, 1)))
	}
}

// relEqual reports a and b equal to a relative 1e-9.
func relEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))+1e-12
}

// score adds one decode to the tally: the bit errors of the served and the
// uncut answer, of zero-forcing and of exact ML on the same request.
func (tt *tierTally) score(t *testing.T, q *backend.Problem, bits []byte, served, uncut *backend.Result) {
	t.Helper()
	tt.decodes++
	tt.bits += len(bits)
	tt.errServed += bitErrs(served.Bits, bits)
	tt.errUncut += bitErrs(uncut.Bits, bits)
	if zf, err := detector.ZeroForcing(q.Mod, q.H, q.Y); err == nil {
		tt.errZF += bitErrs(zf.Bits, bits)
		if zf.Metric < served.Energy-1e-9 {
			tt.zfWins++
		}
	}
	ml, err := detector.SphereDecode(q.Mod, q.H, q.Y, detector.SphereOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tt.errML += bitErrs(ml.Bits, bits)
}
