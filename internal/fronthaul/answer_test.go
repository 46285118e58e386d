package fronthaul

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quamax/internal/anneal"
	"quamax/internal/backend"
	"quamax/internal/core"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/qos"
	"quamax/internal/rng"
	"quamax/internal/sched"
)

// Two certified answers back to back on one slot leave the answer the client
// returned for the first exactly as it was: the server frames an answer
// before its slot takes the next request, and the client decodes every
// answer into the call that returns it. Hard and soft alike, at the served
// 8×8 QPSK shape (the client's inline arrays) and at 32×32 QPSK (64 bits,
// past them).
func TestBackToBackCertifiedAnswersOnOneSlot(t *testing.T) {
	pl, err := qos.NewPlanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(sched.Config{Pool: []backend.Backend{backend.NewClassicalSA("sa", 8, 2)}, Planner: pl, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := NewPoolServer(s)
	srv.PipelineDepth = 1 // each answer lands in the storage the previous one was framed from
	cliConn, srvConn := net.Pipe()
	go srv.handleConn(srvConn)
	client := NewClient(cliConn)
	defer client.Close()
	for _, nt := range []int{8, 32} {
		a, b := testInstance(t, 501, modulation.QPSK, nt), testInstance(t, 502, modulation.QPSK, nt)
		if bytes.Equal(a.TxBits, b.TxBits) {
			t.Fatal("the two instances send the same bits; the test needs two answers that differ")
		}
		for _, soft := range []bool{false, true} {
			decode := func(in *mimo.Instance) *DecodeResponse {
				var resp *DecodeResponse
				var err error
				if soft {
					resp, err = client.DecodeSoft(in.Mod, in.H, in.Y, SoftQoS{TargetBER: 1e-3})
				} else {
					resp, err = client.DecodeQoS(in.Mod, in.H, in.Y, 0, 1e-3)
				}
				if err != nil {
					t.Fatal(err)
				}
				if resp.Backend != sched.CertificateBackend || in.BitErrors(resp.Bits) != 0 || soft != (len(resp.LLR8) == len(resp.Bits)) {
					t.Fatalf("Nt=%d soft=%v: backend %q, %d bit errors, %d LLRs; want a certified answer", nt, soft, resp.Backend, in.BitErrors(resp.Bits), len(resp.LLR8))
				}
				return resp
			}
			first := decode(a)
			bits, llr8 := slices.Clone(first.Bits), slices.Clone(first.LLR8)
			second := decode(b)
			if !bytes.Equal(first.Bits, bits) || !slices.Equal(first.LLR8, llr8) || bytes.Equal(first.Bits, second.Bits) {
				t.Fatalf("Nt=%d soft=%v: the first answer moved when the second arrived", nt, soft)
			}
		}
	}
}

// gatedBackend holds every solve until its gate closes, and reports each
// solve it starts on entered.
type gatedBackend struct {
	caps    backend.Capabilities
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedBackend) Describe() *backend.Capabilities { return &g.caps }
func (g *gatedBackend) Solve(_ context.Context, p *backend.Problem, _ *rng.Source) (*backend.Result, error) {
	g.entered <- struct{}{}
	<-g.gate
	return &backend.Result{Bits: make([]byte, p.LogicalSpins()), Backend: g.caps.Name, Batched: 1}, nil
}

// A connection that drops with its requests below the server — one in the
// worker's solve, the rest queued behind it — gets every Dispatch back on
// cancellation while those jobs live on. From then on the answer storage each
// problem lends (backend.Problem.Answer) is the server's again: nothing the
// scheduler does with the jobs afterwards, the worker's solve and finish or
// the queued ones' end as cancelled, may write it. The test marks each lent
// Result when its Dispatch returns and reads the marks while the worker runs
// on, so a write from below shows as a changed mark and, under -race (CI
// runs it ×10), as a race. Certified requests on the same connection are
// answered in their lent storage before their Dispatch returns.
func TestDroppedConnectionLeavesLentAnswersAlone(t *testing.T) {
	const queued, certified = 6, 3
	pl, err := qos.NewPlanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	be := &gatedBackend{caps: backend.Capabilities{Name: "gated", Latency: func(*backend.Problem) float64 { return 1 }},
		entered: make(chan struct{}, queued), gate: make(chan struct{})}
	s, err := sched.New(sched.Config{Pool: []backend.Backend{be}, Planner: pl, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var marked []*backend.Result
	var certifiedLent atomic.Int64
	mark := backend.Result{Backend: "returned", Bits: []byte{7, 7}}
	srv := NewPoolServer(dispatcherFunc(func(ctx context.Context, p *backend.Problem, d time.Duration) (*backend.Result, error) {
		res, err := s.Dispatch(ctx, p, d)
		switch {
		case err != nil:
			*p.Answer = mark
			mu.Lock()
			marked = append(marked, p.Answer)
			mu.Unlock()
		case res == p.Answer:
			certifiedLent.Add(1)
		}
		return res, err
	}))
	srv.PipelineDepth = queued + certified
	cliConn, srvConn := net.Pipe()
	served := make(chan struct{})
	go func() { srv.handleConn(srvConn); close(served) }()
	client := NewClient(cliConn)

	in := testInstance(t, 503, modulation.QPSK, 4)
	for i := 0; i < certified; i++ {
		if resp, err := client.DecodeQoS(in.Mod, in.H, in.Y, 0, 1e-3); err != nil || resp.Backend != sched.CertificateBackend {
			t.Fatalf("certified request %d: %+v, %v", i, resp, err)
		}
	}
	var calls []*DecodeCall
	for i := 0; i < queued; i++ {
		dc, err := client.SubmitDecodeQoS(in.Mod, in.H, in.Y, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, dc)
	}
	<-be.entered
	for s.Stats().Submitted < certified+queued {
		time.Sleep(100 * time.Microsecond)
	}
	client.Close()
	<-served
	for i, dc := range calls {
		if _, err := dc.Await(); !errors.Is(err, ErrClientClosed) {
			t.Errorf("call %d: %v, want the teardown tag", i, err)
		}
	}
	if len(marked) != queued || certifiedLent.Load() != certified {
		t.Fatalf("%d Dispatches returned on cancellation, %d certified into lent storage; want %d and %d", len(marked), certifiedLent.Load(), queued, certified)
	}

	stop := make(chan struct{})
	read := make(chan error, 1)
	go func() {
		for {
			for _, r := range marked {
				if r.Backend != mark.Backend || !bytes.Equal(r.Bits, mark.Bits) {
					read <- errors.New("a lent Result changed after its Dispatch returned")
					return
				}
			}
			select {
			case <-stop:
				read <- nil
				return
			default:
			}
		}
	}()
	close(be.gate)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Submitted != certified+queued || st.Completed+st.Failed != st.Submitted || st.Failed == 0 {
		t.Fatalf("submitted %d, completed %d, failed %d; want every job ended, the cancelled ones failed", st.Submitted, st.Completed, st.Failed)
	}
}

// A refusal is framed with its text written straight into the frame, in the
// bytes frameResponse gives the same text, clipped alike; the client's
// error for it reads as it always has, and carries the server's message.
func TestRefusalFramedInPlace(t *testing.T) {
	for _, text := range []string{"unknown channel handle 18446744073709551615", "", strings.Repeat("z", 70_000)} {
		want := frameResponse(nil, &DecodeResponse{ID: 9, Err: text})
		got := frameRefusal(nil, 9, func(b []byte) []byte { return append(b, text...) })
		if !bytes.Equal(got, want) {
			t.Fatalf("refusal of a %d-byte text frames differently from frameResponse", len(text))
		}
	}

	cliConn, srvConn := net.Pipe()
	go NewPoolServer(echoDispatcher).handleConn(srvConn)
	client := NewClient(cliConn)
	defer client.Close()
	in := testInstance(t, 77, modulation.QPSK, 8)
	rc, err := client.RegisterChannel(in.Mod, in.H)
	if err != nil {
		t.Fatal(err)
	}
	stale := &RemoteChannel{c: client, handle: 12345, mod: in.Mod, rows: rc.rows}
	_, err = client.DecodeWithChannel(stale, in.Y, 0, 0)
	var remote *RemoteError
	if !errors.As(err, &remote) || err.Error() != "fronthaul: remote decode failed: unknown channel handle 12345" ||
		remote.Msg() != "unknown channel handle 12345" {
		t.Fatalf("stale handle: %v", err)
	}
	if raceEnabled {
		return
	}
	// The refusal's round trip allocates the client's call and the error's
	// text, made once when the answer is decoded; the server allocates
	// nothing for it.
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := client.DecodeWithChannel(stale, in.Y, 0, 0); err == nil || !strings.Contains(err.Error(), "unknown channel handle") {
			t.Fatalf("stale handle: %v", err)
		}
	})
	if allocs > 2 {
		t.Fatalf("a refused round trip allocates %.2f objects, want ≤ 2", allocs)
	}
}

// A round trip the annealer answers allocates, both ends of the connection
// included, only the client's call: the server's slot lends its answer
// storage, the scheduler's queued job lends its own to the annealer, whose
// decoder writes into an Outcome the annealer pools, and the answer is
// copied into the slot's storage once the job is done. So the server side
// allocates nothing, for a channel sent inline with every request (compiled
// into the decoder's pooled run storage) and for a registered one alike.
func TestAnnealerRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	qpu, err := backend.NewAnnealer("qpu", core.Options{
		Params: anneal.Params{AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(sched.Config{Pool: []backend.Backend{qpu}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cliConn, srvConn := net.Pipe()
	go NewPoolServer(s).handleConn(srvConn)
	client := NewClient(cliConn)
	defer client.Close()
	in := testInstance(t, 505, modulation.QPSK, 8)
	rc, err := client.RegisterChannel(in.Mod, in.H)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		decode func() (*DecodeResponse, error)
	}{
		{"inline", func() (*DecodeResponse, error) { return client.Decode(in.Mod, in.H, in.Y) }},
		{"registered", func() (*DecodeResponse, error) { return client.DecodeWithChannel(rc, in.Y, 0, 0) }},
	} {
		roundTrip := func() {
			if resp, err := c.decode(); err != nil || resp.Backend != "qpu" || len(resp.Bits) != 16 {
				t.Fatalf("%s round trip: %+v, %v; want the annealer's answer", c.name, resp, err)
			}
		}
		roundTrip()
		// A collection mid-measurement would empty the pools and count their
		// rebuild, so none runs while the round trips are counted.
		gc := debug.SetGCPercent(-1)
		allocs := testing.AllocsPerRun(200, roundTrip)
		debug.SetGCPercent(gc)
		if allocs > 1 {
			t.Errorf("%s round trip through an annealer pool allocates %.2f objects, want ≤ 1 (the client's call)", c.name, allocs)
		}
	}
}

// A registration allocates only the handle it returns on the client: its call
// comes from the client's pool and the answer decodes into it. The peer here
// answers every registration from one reused frame, allocating nothing, so
// the count is the client's alone.
func TestClientRegistrationAllocatesOnlyItsHandle(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	cliConn, srvConn := net.Pipe()
	go func() {
		fr := newFrameReader(srvConn)
		var frame []byte
		for {
			_, payload, err := fr.next()
			if err != nil {
				return
			}
			r := reader{b: payload}
			frame = frameRegisterResponse(frame, &RegisterChannelResponse{ID: r.u64(), Handle: 7})
			if sendFrame(srvConn, frame) != nil {
				return
			}
		}
	}()
	client := NewClient(cliConn)
	defer client.Close()
	in := testInstance(t, 506, modulation.QPSK, 8)
	register := func() {
		if rc, err := client.RegisterChannel(in.Mod, in.H); err != nil || rc.handle != 7 {
			t.Fatalf("registration: %+v, %v", rc, err)
		}
	}
	register()
	// A collection mid-measurement would empty the pool and count its
	// rebuild, so none runs while the registrations are counted.
	gc := debug.SetGCPercent(-1)
	allocs := testing.AllocsPerRun(200, register)
	debug.SetGCPercent(gc)
	if allocs > 1 {
		t.Fatalf("a client registration makes %v allocations, want ≤ 1: the RemoteChannel", allocs)
	}
}
