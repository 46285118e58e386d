package sched

import (
	"context"
	"time"

	"quamax/internal/backend"
	"quamax/internal/metrics"
	"quamax/internal/rng"
	"quamax/internal/telemetry"
)

// queuedJobLocked copies j into a job from the free list (a new one when it
// is empty), held by Dispatch and the worker, under s.mu. A reused job keeps
// its answer storage.
func (s *Scheduler) queuedJobLocked(j *job) *job {
	var q *job
	if n := len(s.free); n > 0 {
		q, s.free = s.free[n-1], s.free[:n-1]
		j.done, j.ans = q.done, q.ans
	} else {
		q, j.done = new(job), make(chan struct{}, 1)
	}
	*q = *j
	q.holds = 2
	if q.p.Answer != nil {
		q.lent = *q.p
		q.lent.Answer = &q.ans
	}
	return q
}

// problem is the problem q's backend solves: p, or lent when p lends an
// Answer (job).
func (q *job) problem() *backend.Problem {
	if q.p.Answer != nil {
		return &q.lent
	}
	return q.p
}

// releaseLocked ends one side's hold on a queued job, under s.mu. The last
// side returns it to the free list, dropping what it references and an
// answer Dispatch gave up on, but keeping its answer storage's capacity.
func (s *Scheduler) releaseLocked(q *job) {
	if q.holds--; q.holds > 0 {
		return
	}
	select {
	case <-q.done:
	default:
	}
	*q = job{done: q.done, ans: backend.Result{Bits: q.ans.Bits[:0], LLRs: q.ans.LLRs[:0]}}
	s.free = append(s.free, q)
}

// await blocks Dispatch on its queued job q until the worker answers it or
// the submitter gives up, then ends Dispatch's hold on it. An answer lands in
// the caller's lent Answer, if any, on this goroutine. A job given up on
// stays queued; the worker finishes it, as cancelled, when it surfaces.
func (s *Scheduler) await(q *job) (res *backend.Result, err error) {
	select {
	case <-q.done:
		res, err = q.res, q.err
		if err == nil && q.p.Answer != nil {
			res = q.p.Answer.Assign(res)
		}
	case <-q.ctx.Done():
		err = q.ctx.Err()
	}
	s.mu.Lock()
	s.releaseLocked(q)
	s.mu.Unlock()
	return res, err
}

// gated reports whether the pool backend at index i is pulled from regular
// dispatch by the health tracker. A quarantined member is only gated while
// some other pool member still serves: when the whole pool is quarantined
// the scheduler keeps serving on it (a degraded answer beats none), which
// also keeps the queue from deadlocking. Without a tracker nothing is gated:
// a nil Tracker reports every backend Healthy.
func (s *Scheduler) gated(i int) bool {
	h := s.cfg.Health
	return h.State(s.poolNames[i]) == metrics.HealthQuarantined && h.AnyServing(s.poolNames)
}

// servingWorkers counts the pool workers currently accepting regular work
// (all of them when health gating is off or the whole pool is quarantined).
func (s *Scheduler) servingWorkers() int {
	n := 0
	for i := range s.cfg.Pool {
		if !s.gated(i) {
			n++
		}
	}
	if n == 0 {
		return len(s.cfg.Pool)
	}
	return n
}

// gateWorker holds a quarantined worker out of regular dispatch, probing
// its backend with the canary instance on the tracker's schedule. It spins
// in ~1ms quanta so re-admission (or the rest of the pool going down, which
// un-gates everyone) is picked up promptly. Returns false when the
// scheduler closed with an empty queue — the worker should exit — and true
// when the worker may pull regular work again.
func (s *Scheduler) gateWorker(idx int, ctr *backendCounters, src *rng.Source) bool {
	h := s.cfg.Health
	for s.gated(idx) {
		s.mu.Lock()
		done := s.closed && len(s.queue) == 0
		s.mu.Unlock()
		if done {
			return false
		}
		if h.CanaryDue(ctr.caps.Name) {
			// Probe on a background context: the canary is the scheduler's
			// own request and must not inherit any client deadline. Device
			// time still bills the backend — a quarantined chip is busy
			// proving itself, and hiding that would flatter its utilization.
			started := s.now()
			res, err := solveContained(context.Background(), ctr.be, s.canary.Problem, src)
			elapsed := micros(s.now().Sub(started))
			s.mu.Lock()
			ctr.charge(elapsed)
			s.mu.Unlock()
			h.RecordCanary(ctr.caps.Name, s.canary.Check(res, err))
			continue
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// run is a worker's storage for the run it assembles, reused from one run to
// the next: its jobs, their problems and a batch of one's result (solve).
// The jobs are the free list's, so holding them pins nothing.
type run struct {
	jobs []*job
	ps   []*backend.Problem
	one  [1]*backend.Result
}

// worker runs one pool backend: pop the queue head, optionally gather a
// batch, solve, finish each job.
func (s *Scheduler) worker(idx int) {
	defer s.wg.Done()
	src := s.splitSource()
	ctr := s.counters[idx]
	be := ctr.be
	var r run
	for {
		if !s.gateWorker(idx, ctr, src) {
			return
		}
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		if s.gated(idx) {
			// The health state may have flipped while this worker was parked in
			// Wait — re-gate before touching the queue so a freshly
			// quarantined backend never pulls one more job.
			s.mu.Unlock()
			continue
		}
		// Pop the head under the lock, but resolve the backend's batch
		// capacity outside it: the first BatchSlots call for a new problem
		// size runs a clique-embedding search, which must not stall
		// admission and the other workers.
		head := s.queue[0]
		n := copy(s.queue, s.queue[1:]) // the backing array stays for the next append
		s.queue[n] = nil                // the vacated slot must not pin a job
		s.queue = s.queue[:n]
		s.queuedMicros -= head.est
		s.inflightMicros += head.est
		s.mu.Unlock()

		var popAt time.Time
		if s.cfg.Telemetry != nil {
			popAt = s.now()
		}
		batch := append(r.jobs[:0], head)
		slots := 1
		if bb, ok := be.(backend.BatchBackend); ok && !s.cfg.DisableBatch {
			if slots = bb.BatchSlots(head.p); slots > 1 {
				s.mu.Lock()
				batch = s.gatherLocked(batch, slots)
				s.mu.Unlock()
			}
		}
		r.jobs = batch
		if s.cfg.Telemetry != nil {
			// The head waited until it was popped and is charged the run
			// assembly (slot resolution + gathering); batch riders stayed
			// effectively queued until gathering finished. Spans stay
			// disjoint so they partition each request's e2e.
			gatherEnd := s.now()
			head.tr.Stages[telemetry.StageQueue] = micros(popAt.Sub(head.admittedAt))
			head.tr.Stages[telemetry.StageGather] = micros(gatherEnd.Sub(popAt))
			for _, j := range batch[1:] {
				j.tr.Stages[telemetry.StageQueue] = micros(gatherEnd.Sub(j.admittedAt))
			}
		}

		// Jobs whose submitter already gave up end here, unsolved.
		live := batch[:0]
		for _, j := range batch {
			if err := j.ctx.Err(); err != nil {
				s.mu.Lock()
				s.finish(j, nil, nil, err, time.Time{}, time.Time{}, 0)
				s.releaseLocked(j)
				s.mu.Unlock()
				continue
			}
			live = append(live, j)
		}
		if len(live) == 0 {
			continue
		}

		started := s.now()
		results, err := s.solve(be, live, slots, src, &r)
		solveEnd := s.now()

		s.mu.Lock()
		ctr.charge(micros(solveEnd.Sub(started)))
		if err != nil {
			results = make([]*backend.Result, len(live)) // a failed run answers no job
		}
		for i, j := range live {
			s.finish(j, ctr, results[i], err, started, solveEnd, len(live))
			s.releaseLocked(j)
		}
		s.mu.Unlock()
		r.one[0] = nil // the worker must not pin an answer
		clear(r.ps)    // nor a problem
	}
}

// gatherLocked extends batch, an already-popped head job, with batch-compatible
// queued jobs (backend.Batchable: same logical spin count and agreeing
// anneal schedule) up to the backend's slot capacity. For a head carrying a
// Window, queued symbols from the SAME coherence window (equal key — the
// channel is already programmed on the backend's compiled-channel cache)
// claim the run's slots first, and only leftover slots go to other
// batch-compatible jobs; an un-keyed head has no window and every free slot
// is a leftover. Within each class FIFO order is preserved, and the batch
// itself stays in queue order so FIFO fairness inside one run is untouched.
// Estimates move from queued to in-flight.
func (s *Scheduler) gatherLocked(batch []*job, slots int) []*job {
	head := batch[0]
	key := head.p.Window.Key()
	sameWindow := func(j *job) bool { return key != 0 && j.p.Window.Key() == key }
	// First pass: how many free slots the head's window claims.
	same, other := 0, slots-1
	if key != 0 {
		for _, j := range s.queue {
			if other > 0 && sameWindow(j) && backend.Batchable(head.p, j.p) {
				same++
				other--
			}
		}
	}
	// Second pass: take that many same-window jobs and fill the leftover
	// slots with any other batch-compatible job, in queue order.
	kept := s.queue[:0]
	for _, j := range s.queue {
		free := &other
		if sameWindow(j) {
			free = &same
		}
		if *free > 0 && backend.Batchable(head.p, j.p) {
			*free--
			s.queuedMicros -= j.est
			s.inflightMicros += j.est
			batch = append(batch, j)
			continue
		}
		kept = append(kept, j)
	}
	clear(s.queue[len(kept):]) // dropped slots must not pin jobs
	s.queue = kept
	return batch
}

// solve runs one batch (possibly of size 1, whose result it returns in
// r.one) on be and updates batching counters. slots is the capacity the
// worker already resolved for this run. A panic in the backend fails the
// whole batch with a *PanicError.
func (s *Scheduler) solve(be backend.Backend, batch []*job, slots int, src *rng.Source, r *run) (_ []*backend.Result, err error) {
	defer containPanic(be, &err)
	if len(batch) == 1 {
		r.one[0], err = be.Solve(batch[0].ctx, batch[0].problem(), src)
		return r.one[:], err
	}
	bb := be.(backend.BatchBackend)
	r.ps = r.ps[:0]
	for _, j := range batch {
		r.ps = append(r.ps, j.problem())
	}
	results, err := bb.SolveBatch(batch[0].ctx, r.ps, src)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.stats.BatchRuns++
	s.stats.BatchedProblems += uint64(len(batch))
	if slots > 0 {
		s.occupancySum += float64(len(batch)) / float64(slots)
	}
	s.mu.Unlock()
	return results, nil
}
