package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"quamax/internal/fronthaul"
	"quamax/internal/linalg"
	"quamax/internal/precoding"
	"quamax/internal/reduction"
	"quamax/internal/rng"
)

const (
	// inFlightPerConn sizes the closed loop: this many requests per
	// connection are kept in flight (issued from one shared trace cursor,
	// each on its cell's connection).
	inFlightPerConn = 16
	// segments cuts every phase into equal parts; a sat-phase metric's value
	// is the median of its per-segment values (reduceSegments).
	segments = 5
	// maxOutstanding bounds the open loop's in-flight goroutines; an arrival
	// beyond it counts as unanswered.
	maxOutstanding = 4096
	// drainTimeout bounds the wait for stragglers after the last arrival;
	// whatever is still out then is failed by closing the connections.
	drainTimeout = 10 * time.Second
	// spinWindow is how long before an arrival the generator stops sleeping
	// and busy-waits instead, so the sleep's slack does not become lag.
	spinWindow = 150 * time.Microsecond
	// relTol is the relative tolerance of the energy and gamma checks.
	relTol = 1e-6
)

// countingConn counts the bytes a client connection moves.
type countingConn struct {
	net.Conn
	read, written atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// window is an AP's view of one coherence window: the handle its channel is
// registered under and, for precode users, the VP program the answer is
// checked against.
type window struct {
	mu sync.Mutex
	rc *fronthaul.RemoteChannel
	vp *precoding.Program
}

// ap models one access-point connection. It owns channel handles: a window's
// channel is registered once and its symbols are decoded by handle; when the
// server has evicted the handle (it keeps the newest MaxChannelsPerConn per
// connection) the AP re-registers and resends once.
type ap struct {
	w    *workload
	c    *fronthaul.Client
	conn *countingConn

	mu      sync.Mutex
	windows map[*linalg.Mat]*window

	// Lifetime counters of this connection (warm-up included), reconciled
	// against the router's stats.
	ok, failed, shed, stale, registers atomic.Int64
}

func dialAP(w *workload, addr string) (*ap, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: conn}
	return &ap{w: w, c: fronthaul.NewClient(cc), conn: cc, windows: make(map[*linalg.Mat]*window)}, nil
}

func (a *ap) window(h *linalg.Mat) *window {
	a.mu.Lock()
	defer a.mu.Unlock()
	win := a.windows[h]
	if win == nil {
		win = &window{}
		a.windows[h] = win
	}
	return win
}

// handle returns the window's registered channel, registering it when the
// window is new or its handle is the one the server just reported stale.
func (a *ap) handle(win *window, h *linalg.Mat, stale *fronthaul.RemoteChannel) (*fronthaul.RemoteChannel, error) {
	win.mu.Lock()
	defer win.mu.Unlock()
	if win.rc == nil || win.rc == stale {
		rc, err := a.c.RegisterChannel(a.w.mod, h)
		if err != nil {
			return nil, err
		}
		a.registers.Add(1)
		win.rc = rc
	}
	return win.rc, nil
}

type status uint8

const (
	statusOK status = iota
	statusShed
	statusFailed
)

// result is what one request came to, after the correctness checks.
type result struct {
	status    status
	err       error
	violation string
	// bitErrs of bits transmitted bits came back wrong (decodes only).
	bitErrs, bits int
	// gamma and zfGamma are the achieved and zero-forcing transmit powers
	// (precodes only).
	gamma, zfGamma float64
}

func staleHandle(err error) bool {
	return err != nil && strings.Contains(err.Error(), "unknown channel handle")
}

// do issues one request and scores the answer.
func (a *ap) do(r *request) result {
	var win *window
	var rc *fronthaul.RemoteChannel
	if a.w.keyed {
		win = a.window(r.h)
		var err error
		if rc, err = a.handle(win, r.h, nil); err != nil {
			a.failed.Add(1)
			return result{status: statusFailed, err: err}
		}
	}
	res, err := a.send(r, win, rc)
	if staleHandle(err) {
		a.stale.Add(1)
		if rc, err = a.handle(win, r.h, rc); err == nil {
			res, err = a.send(r, win, rc)
		}
	}
	switch {
	case err == nil:
		a.ok.Add(1)
	case strings.Contains(err.Error(), "shedding load"):
		a.shed.Add(1)
		return result{status: statusShed, err: err}
	default:
		a.failed.Add(1)
		return result{status: statusFailed, err: err}
	}
	return res
}

func (a *ap) send(r *request, win *window, rc *fronthaul.RemoteChannel) (result, error) {
	w := a.w
	switch r.kind {
	case kindSoft:
		resp, err := a.c.DecodeSoftWithChannel(rc, r.y, fronthaul.SoftQoS{
			NoiseVar: r.noiseVar, Deadline: w.deadline, TargetBER: w.targetBER,
		})
		if err != nil {
			return result{}, err
		}
		return a.checkDecode(r, resp.Bits, resp.Energy, resp.LLR8, true), nil
	case kindPrecode:
		resp, err := a.c.PrecodeWithChannel(rc, r.y, 0, w.deadline, w.targetBER)
		if err != nil {
			return result{}, err
		}
		return a.checkPrecode(r, win, resp), nil
	}
	var resp *fronthaul.DecodeResponse
	var err error
	if rc != nil {
		resp, err = a.c.DecodeWithChannel(rc, r.y, w.deadline, w.targetBER)
	} else {
		resp, err = a.c.DecodeQoS(w.mod, r.h, r.y, w.deadline, w.targetBER)
	}
	if err != nil {
		return result{}, err
	}
	return a.checkDecode(r, resp.Bits, resp.Energy, nil, false), nil
}

func relClose(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))+1e-12
}

// checkDecode verifies a decode answer: the bit count, that the reported
// energy is the ML metric of the returned bits (skipped over the stub, which
// solves nothing), and that every strict LLR sign agrees with its hard bit.
func (a *ap) checkDecode(r *request, bits []byte, energy float64, llr8 []int8, soft bool) result {
	res := result{bits: len(r.bits)}
	if len(bits) != len(r.bits) {
		res.violation = fmt.Sprintf("decode returned %d bits, want %d", len(bits), len(r.bits))
		return res
	}
	if soft && len(llr8) != len(bits) {
		res.violation = fmt.Sprintf("soft decode returned %d LLRs for %d bits", len(llr8), len(bits))
		return res
	}
	for i, q := range llr8 {
		if (q > 0 && bits[i] != 1) || (q < 0 && bits[i] != 0) {
			res.violation = fmt.Sprintf("LLR %d has sign of %d but hard bit is %d", i, q, bits[i])
			return res
		}
	}
	if !a.w.stub {
		if want := reduction.MLMetric(r.h, r.y, a.w.mod.MapGrayVector(bits)); !relClose(want, energy) {
			res.violation = fmt.Sprintf("decode energy %.12g, ML metric of its bits %.12g", energy, want)
			return res
		}
	}
	for i, b := range bits {
		if b != r.bits[i] {
			res.bitErrs++
		}
	}
	return res
}

// checkPrecode verifies a precode answer against the VP objective computed
// client-side from the window's own compiled program.
func (a *ap) checkPrecode(r *request, win *window, resp *fronthaul.PrecodeResponse) result {
	var res result
	if len(resp.V) != len(r.y) {
		res.violation = fmt.Sprintf("precode returned %d perturbations, want %d", len(resp.V), len(r.y))
		return res
	}
	if a.w.stub {
		return res
	}
	win.mu.Lock()
	if win.vp == nil {
		vp, err := precoding.Compile(a.w.mod, r.h, 0)
		if err != nil {
			win.mu.Unlock()
			res.violation = fmt.Sprintf("client-side VP compile: %v", err)
			return res
		}
		win.vp = vp
	}
	vp := win.vp
	win.mu.Unlock()
	res.gamma = vp.Gamma(r.y, resp.V)
	res.zfGamma = vp.ZFGamma(r.y)
	if !relClose(res.gamma, resp.Energy) {
		res.violation = fmt.Sprintf("precode energy %.12g, gamma of its perturbation %.12g", resp.Energy, res.gamma)
	}
	return res
}

// segment accumulates one fifth of a phase.
type segment struct {
	ok int
	// due counts paced arrivals due in the segment; met those answered OK
	// within the workload's limit.
	due, met int
	// backlog is the number of paced requests outstanding when the segment's
	// first arrival came due.
	backlog int
	latMs   []float64
	cpu     time.Duration
	mallocs uint64
}

// recorder collects a phase's results by segment.
type recorder struct {
	start  time.Time
	segLen time.Duration
	limit  time.Duration

	mu  sync.Mutex
	seg [segments]segment
	// issued counts every request the phase sent (paced: was due); failed
	// includes the unanswered. lastOK is when the last OK answer came in.
	issued, ok, failed, shed int
	lastOK                   time.Time
	latMs                    []float64
	bitErrs, bits            int64
	gamma, zfGamma           float64
	violations               int
	firstViolation           string
	firstError               error
}

func newRecorder(start time.Time, dur, limit time.Duration) *recorder {
	return &recorder{start: start, segLen: dur / segments, limit: limit}
}

// record files one finished request under segment s (ignored when the
// request finished after the closed-loop phase ended: s == segments).
func (rc *recorder) record(s int, lat time.Duration, res result) {
	ms := float64(lat) / float64(time.Millisecond)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var sg *segment
	if s < segments {
		sg = &rc.seg[s]
	}
	switch res.status {
	case statusOK:
		rc.ok++
		rc.lastOK = time.Now()
		rc.latMs = append(rc.latMs, ms)
		if sg != nil {
			sg.ok++
			sg.latMs = append(sg.latMs, ms)
			if lat <= rc.limit {
				sg.met++
			}
		}
	case statusShed:
		rc.shed++
	default:
		rc.failed++
		if rc.firstError == nil {
			rc.firstError = res.err
		}
	}
	rc.bitErrs += int64(res.bitErrs)
	rc.bits += int64(res.bits)
	rc.gamma += res.gamma
	rc.zfGamma += res.zfGamma
	if res.violation != "" {
		rc.violations++
		if rc.firstViolation == "" {
			rc.firstViolation = res.violation
		}
	}
}

// loadgen drives the APs from one shared cursor over the generated inputs;
// phases continue where the previous one stopped and wrap cyclically.
type loadgen struct {
	in   *inputs
	aps  []*ap
	next atomic.Int64
}

func (g *loadgen) nextRequest() *request {
	i := g.next.Add(1) - 1
	return &g.in.reqs[int(i%int64(len(g.in.reqs)))]
}

func (g *loadgen) closeClients() {
	for _, a := range g.aps {
		// The socket error a deliberate close can surface carries nothing.
		_ = a.c.Close()
	}
}

// rusage reads the process's resource usage; a failed read reads as zero.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set so far (Linux reports KB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// closedLoop keeps inFlightPerConn×connections requests in flight. With
// count > 0 it issues exactly count requests (warm-up); otherwise it runs for
// dur, sampling CPU and allocation counters at the segment boundaries, and
// then lets the requests in flight finish.
func (g *loadgen) closedLoop(count int, dur time.Duration, limit time.Duration) *recorder {
	rec := newRecorder(time.Now(), dur, limit)
	var stop atomic.Bool
	var budget atomic.Int64
	budget.Store(int64(count))
	var wg sync.WaitGroup
	for i := 0; i < inFlightPerConn*len(g.aps); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if count > 0 && budget.Add(-1) < 0 {
					return
				}
				r := g.nextRequest()
				t0 := time.Now()
				res := g.aps[r.conn].do(r)
				done := time.Now()
				s := segments
				if count == 0 {
					s = min(int(done.Sub(rec.start)/rec.segLen), segments)
				}
				rec.record(s, done.Sub(t0), res)
			}
		}()
	}
	if count == 0 {
		cpu, mal := processCPU(), mallocs()
		for s := 0; s < segments; s++ {
			time.Sleep(time.Until(rec.start.Add(time.Duration(s+1) * rec.segLen)))
			c, m := processCPU(), mallocs()
			rec.mu.Lock()
			rec.seg[s].cpu, rec.seg[s].mallocs = c-cpu, m-mal
			rec.mu.Unlock()
			cpu, mal = c, m
		}
		stop.Store(true)
	}
	wg.Wait()
	rec.issued = rec.ok + rec.failed + rec.shed
	return rec
}

// poissonArrivals draws arrival offsets at the given rate over dur.
func poissonArrivals(src *rng.Source, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-src.Float64()) / rate
		off := time.Duration(t * float64(time.Second))
		if off >= dur {
			return out
		}
		out = append(out, off)
	}
}

// sleepUntil waits for due on the calling thread: nanosleep to within
// spinWindow, then a busy wait. The Go runtime's own timers are only as fine
// as its network poller's millisecond timeout while the process is otherwise
// idle, which would make every arrival about a millisecond late; the caller
// locks its goroutine to an OS thread so the sleep blocks that thread alone.
func sleepUntil(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			// An interrupted sleep is retried by the loop.
			_ = syscall.Nanosleep(&ts, nil)
		}
	}
}

// openLoop is the open-loop clock: it calls issue(k, due) for every arrival
// as soon as its due time has come, whether or not earlier requests have been
// answered, and returns how late each call was made. issue must not block;
// the request it starts is timed from due, not from the call.
func openLoop(start time.Time, arrivals []time.Duration, wait func(time.Time), issue func(k int, due time.Time)) []time.Duration {
	lags := make([]time.Duration, len(arrivals))
	for k, off := range arrivals {
		due := start.Add(off)
		wait(due)
		lags[k] = time.Since(due)
		issue(k, due)
	}
	return lags
}

// paced runs the open-loop phase: Poisson arrivals at rate for dur, each
// request sent on its own goroutine so responses are awaited off the send
// path. Requests are filed under the segment they were due in.
func (g *loadgen) paced(src *rng.Source, rate float64, dur, limit time.Duration) (*recorder, []time.Duration) {
	arrivals := poissonArrivals(src, rate, dur)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	rec := newRecorder(start, dur, limit)
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	lags := openLoop(start, arrivals, sleepUntil, func(k int, due time.Time) {
		s := min(int(arrivals[k]/rec.segLen), segments-1)
		rec.mu.Lock()
		if rec.seg[s].due == 0 {
			rec.seg[s].backlog = len(sem)
		}
		rec.seg[s].due++
		rec.mu.Unlock()
		r := g.nextRequest()
		select {
		case sem <- struct{}{}:
		default:
			rec.record(s, 0, result{status: statusFailed, err: errors.New("load generator: too many requests outstanding")})
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := g.aps[r.conn].do(r)
			rec.record(s, time.Since(due), res)
			<-sem
		}()
	})
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
		g.closeClients()
		<-drained
	}
	rec.issued = len(arrivals)
	return rec, lags
}
