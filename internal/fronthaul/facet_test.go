package fronthaul

import (
	"context"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"quamax/internal/anneal"
	"quamax/internal/backend"
	"quamax/internal/chimera"
	"quamax/internal/core"
	"quamax/internal/detector"
	"quamax/internal/metrics"
	"quamax/internal/modulation"
	"quamax/internal/qos"
	"quamax/internal/router"
	"quamax/internal/sched"
)

// A registered window carries its classical state, built once: one
// registration, served by 2 shards × 4 pool annealers plus a Sphere fallback,
// under concurrent by-handle hard, soft and precode requests at two
// perturbation depths — certified at admission, solved on the annealers and
// searched by the fallback — factors exactly one sphere program per window
// (the registration's and each VP program's) and compiles one VP program per
// depth. A shard's annealers share one decoder, so each window they serve
// compiles once per shard, and the pool stats count that one store once.
// CI runs this under -race ×10.
func TestWindowFacetsBuildOnce(t *testing.T) {
	const users = 4
	in := testInstance(t, 1301, modulation.QPSK, users)
	fit := qos.Point{Mod: "QPSK", Nt: users, SNRdB: -20, Mode: qos.ModeForward, P0: 0.5, SpreadBER: 0.1}
	top := fit
	top.SNRdB = 30
	pl, err := qos.NewPlanner(&qos.Table{
		Ops:    []qos.ClassOp{{Mod: "QPSK", JF: 4, Ta: 1, Tp: 1, Sp: 0.35}},
		Points: []qos.Point{fit, top},
	})
	if err != nil {
		t.Fatal(err)
	}
	var shards []router.Shard
	var decs []*core.Decoder // one per shard, shared by its annealers
	for sh := 0; sh < 2; sh++ {
		dec, err := core.New(core.Options{
			Graph:  chimera.New(6),
			Params: anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 20},
		})
		if err != nil {
			t.Fatal(err)
		}
		decs = append(decs, dec)
		var pool []backend.Backend
		for q := 0; q < 4; q++ {
			pool = append(pool, backend.AnnealerFromDecoder(fmt.Sprintf("s%d/qpu%d", sh, q), dec))
		}
		s, err := sched.New(sched.Config{Pool: pool, Fallback: backend.NewSphere(fmt.Sprintf("s%d/sphere", sh), 0),
			Planner: pl, Seed: int64(sh + 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		shards = append(shards, s)
	}
	rt, err := router.New(router.Config{Shards: shards, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	// The dispatcher sees every problem: a precode's carries the window of
	// the VP program it was derived from, one program per depth. A lookup
	// that waits on its window's compile counts as a store hit
	// (core.WindowStore), so a shard store's misses are its compiles however
	// a window's symbols reach its annealers.
	var mu sync.Mutex
	vpWindows := map[modulation.Modulation]map[*core.Window]bool{}
	srv := NewPoolServer(dispatcherFunc(func(ctx context.Context, p *backend.Problem, d time.Duration) (*backend.Result, error) {
		if p.Lattice {
			mu.Lock()
			if vpWindows[p.Mod] == nil {
				vpWindows[p.Mod] = map[*core.Window]bool{}
			}
			vpWindows[p.Mod][p.Window] = true
			mu.Unlock()
		}
		return rt.Dispatch(ctx, p, d)
	}))
	cliConn, srvConn := net.Pipe()
	go srv.handleConn(srvConn)
	client := NewClient(cliConn)
	defer client.Close()

	before := detector.SphereCompiles()
	rc, err := client.RegisterChannel(in.Mod, in.H)
	if err != nil {
		t.Fatal(err)
	}
	// A target BER is certified at admission; no target and a deadline no
	// annealer meets goes to the Sphere fallback; no target and no deadline
	// queues for the annealers.
	type route struct {
		deadline time.Duration
		target   float64
	}
	routes := []route{{0, 1e-3}, {time.Microsecond, 0}, {0, 0}}
	s := in.TxSymbols
	var wg sync.WaitGroup
	answeredBy := make([]string, 24)
	for g := range answeredBy {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := routes[g%len(routes)]
			var err error
			switch g / len(routes) % 4 {
			case 0:
				var resp *DecodeResponse
				if resp, err = client.DecodeWithChannel(rc, in.Y, r.deadline, r.target); err == nil {
					answeredBy[g] = resp.Backend
					if errs := in.BitErrors(resp.Bits); errs != 0 && !strings.Contains(resp.Backend, "qpu") {
						t.Errorf("request %d: %d bit errors from %s, an exact search", g, errs, resp.Backend)
					}
				}
			case 1:
				var resp *DecodeResponse
				if resp, err = client.DecodeSoftWithChannel(rc, in.Y, SoftQoS{NoiseVar: 0.05, Deadline: r.deadline, TargetBER: r.target}); err == nil {
					answeredBy[g] = resp.Backend
				}
			default:
				var resp *PrecodeResponse
				if resp, err = client.PrecodeWithChannel(rc, s, 1+g%2, r.deadline, r.target); err == nil {
					answeredBy[g] = resp.Backend
				}
			}
			if err != nil {
				t.Errorf("request %d: %v", g, err)
			}
		}()
	}
	wg.Wait()
	for _, facet := range []string{sched.CertificateBackend, "/sphere", "/qpu"} {
		if !slices.ContainsFunc(answeredBy, func(b string) bool { return strings.Contains(b, facet) }) {
			t.Errorf("no request was answered by %q: the test missed a facet (answers %v)", facet, answeredBy)
		}
	}
	if len(vpWindows) != 2 {
		t.Fatalf("precodes at %d depths, want 2", len(vpWindows))
	}
	for mod, ws := range vpWindows {
		if len(ws) != 1 {
			t.Errorf("%d VP programs compiled for the %v alphabet of one registration, want 1", len(ws), mod)
		}
	}
	if n := detector.SphereCompiles() - before; n != 3 {
		t.Fatalf("%d sphere programs factored for one registration and its 2 VP programs, want 3", n)
	}

	// The windows each shard's annealers solved: the registration's, for a
	// decode, or the VP program's of the precode's depth.
	served := make([]map[string]bool, len(decs))
	for g, b := range answeredBy {
		var sh int
		if _, err := fmt.Sscanf(b, "s%d/qpu", &sh); err != nil {
			continue
		}
		window := "registration"
		if g/len(routes)%4 >= 2 {
			window = fmt.Sprintf("VP depth %d", 1+g%2)
		}
		if served[sh] == nil {
			served[sh] = map[string]bool{}
		}
		served[sh][window] = true
	}
	var sum metrics.ChannelCacheStats
	for sh, dec := range decs {
		cs := dec.ChannelCacheStats()
		if cs.Misses != uint64(len(served[sh])) {
			t.Errorf("shard %d: %d compiles for the %d windows its annealers served (%v), want one each", sh, cs.Misses, len(served[sh]), served[sh])
		}
		sum = sum.Add(cs)
	}
	if got := rt.Stats().ChannelCache; got != sum {
		t.Errorf("pool stats count compiled-channel traffic %+v, the shards' stores %+v", got, sum)
	}
}
