package main

import (
	"errors"
	"fmt"
	"net"

	"quamax/internal/anneal"
	"quamax/internal/backend"
	"quamax/internal/core"
	"quamax/internal/fronthaul"
	"quamax/internal/metrics"
	"quamax/internal/qos"
	"quamax/internal/router"
	"quamax/internal/sched"
)

const (
	// shards and the per-shard pool mirror `quamax-serve -shards 2 -pool 1`.
	shards = 2
	// solverSeed fixes all solver randomness; only the inputs follow -seed.
	solverSeed = 1
	// saSweeps and saRestarts are quamax-serve's classical-SA defaults.
	saSweeps, saRestarts = 128, 100
)

// stack is the serving side under test, built in-process from the public
// constructors: a fronthaul server on loopback TCP in front of a router over
// two scheduler shards. Each shard owns one simulated annealer with the
// classical-SA fallback (or the stub solver), the built-in QoS planner is
// shared, and the health, telemetry and cost-aware planes are off.
type stack struct {
	annealers  []*backend.Annealer
	schedulers []*sched.Scheduler
	router     *router.Router
	planner    *qos.Planner
	ln         net.Listener
	served     chan error
}

// decoderOptions is the annealer configuration quamax-serve builds from its
// flag defaults, with the workload's read count.
func decoderOptions(na int) core.Options {
	return core.Options{
		JF:            4,
		ImprovedRange: true,
		Params: anneal.Params{
			AnnealTimeMicros: 1, PauseTimeMicros: 1, PausePosition: 0.35, NumAnneals: na,
		},
		AmortizeParallel: true,
	}
}

// buildStack assembles and starts the server. tr, when non-nil, wraps the
// three public interface boundaries with span-recording wrappers.
func buildStack(w *workload, tr *tracer) (*stack, error) {
	planner, err := qos.NewPlanner(nil)
	if err != nil {
		return nil, err
	}
	st := &stack{planner: planner}
	var members []router.Shard
	for i := 0; i < shards; i++ {
		var pool, fallback backend.Backend
		if w.stub {
			pool = newStubBackend(fmt.Sprintf("s%d/stub", i))
		} else {
			qpu, err := backend.NewAnnealer(fmt.Sprintf("s%d/qpu0", i), decoderOptions(w.na))
			if err != nil {
				return nil, err
			}
			st.annealers = append(st.annealers, qpu)
			pool = qpu
			fallback = backend.NewClassicalSA(fmt.Sprintf("s%d/sa", i), saSweeps, saRestarts)
		}
		if tr != nil {
			pool = tr.wrapBackend(pool, false)
			if fallback != nil {
				fallback = tr.wrapBackend(fallback, true)
			}
		}
		s, err := sched.New(sched.Config{
			Pool:     []backend.Backend{pool},
			Fallback: fallback,
			Planner:  planner,
			Seed:     solverSeed + int64(i),
			ShardID:  i,
		})
		if err != nil {
			return nil, err
		}
		st.schedulers = append(st.schedulers, s)
		if tr != nil {
			members = append(members, tr.wrapShard(s))
		} else {
			members = append(members, s)
		}
	}
	st.router, err = router.New(router.Config{Shards: members, Seed: solverSeed})
	if err != nil {
		return nil, err
	}
	var disp fronthaul.Dispatcher = st.router
	if tr != nil {
		disp = tr.wrapDispatcher(disp)
	}
	if err := st.serve(fronthaul.NewPoolServer(disp)); err != nil {
		return nil, err
	}
	return st, nil
}

// serve starts srv on an ephemeral loopback port.
func (st *stack) serve(srv *fronthaul.Server) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.ln = ln
	st.served = make(chan error, 1)
	go func() { st.served <- srv.Serve(ln) }()
	return nil
}

// newStubStack serves the stub dispatcher alone (no router, no scheduler).
func newStubStack() (*stack, error) {
	st := &stack{}
	if err := st.serve(fronthaul.NewPoolServer(stubDispatcher{})); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *stack) addr() string { return st.ln.Addr().String() }

// close stops accepting, waits for the accept loop, and drains the
// schedulers. Clients must be closed first so connection handlers unwind.
func (st *stack) close() error {
	err := st.ln.Close()
	err = errors.Join(err, <-st.served)
	for _, s := range st.schedulers {
		err = errors.Join(err, s.Close())
	}
	return err
}

// sheds sums the router's per-shard refusals.
func (st *stack) sheds() uint64 {
	var n uint64
	for i := 0; i < st.router.Shards(); i++ {
		n += st.router.ShedCount(i)
	}
	return n
}

// cacheStats sums the compiled-channel cache counters over the annealers.
func (st *stack) cacheStats() metrics.ChannelCacheStats {
	var cs metrics.ChannelCacheStats
	for _, a := range st.annealers {
		cs = cs.Add(a.ChannelCacheStats())
	}
	return cs
}
