package main

import (
	"encoding/json"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"quamax/internal/channel"
	"quamax/internal/fronthaul"
	"quamax/internal/modulation"
	"quamax/internal/rng"
	"quamax/internal/trace"
)

func TestReduceSegments(t *testing.T) {
	v, lo, hi := reduceSegments([]float64{5, 1, 100, 3, math.NaN()})
	if v != 4 || lo != 1 || hi != 100 {
		t.Fatalf("median %v min %v max %v, want 4, 1, 100", v, lo, hi)
	}
	// One disturbed segment in five does not move the value; a stall that
	// recurs in three of five does.
	if v, _, _ = reduceSegments([]float64{100, 55, 101, 99, 100}); v != 100 {
		t.Fatalf("median with one disturbed segment %v, want 100", v)
	}
	if v, _, _ = reduceSegments([]float64{100, 60, 62, 99, 61}); v != 62 {
		t.Fatalf("median with three disturbed segments %v, want 62", v)
	}
}

// TestSlotted checks the slotted order: every channel carries exactly the
// slot's symbols, on consecutive turns of its lane, and replaying the order
// cyclically keeps the slots whole.
func TestSlotted(t *testing.T) {
	const channels, uses = 3 * slotLanes, 14
	reqs := make([]trace.Request, channels)
	for i := range reqs {
		reqs[i].User = i
	}
	out := slotted(reqs, uses)
	if len(out) != channels*uses {
		t.Fatalf("%d requests, want %d", len(out), channels*uses)
	}
	seen := make(map[int]int)
	changes := 0
	for p, r := range out {
		seen[r.User]++
		if next := out[(p+slotLanes)%len(out)]; next.User != r.User {
			changes++
		}
	}
	for ch, n := range seen {
		if n != uses {
			t.Errorf("channel %d carries %d symbols, want %d", ch, n, uses)
		}
	}
	if len(seen) != channels || changes != channels {
		t.Errorf("%d channels in %d runs, want %d in %d", len(seen), changes, channels, channels)
	}
}

// TestOpenLoopClock checks the two properties the paced phase rests on: a
// stalled generator is reported as lag, and a request's latency runs from the
// instant it was due, so the stall is charged to the requests it delayed.
func TestOpenLoopClock(t *testing.T) {
	const stall, service = 40 * time.Millisecond, 2 * time.Millisecond
	arrivals := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond}
	start := time.Now()
	first := true
	wait := func(due time.Time) {
		time.Sleep(time.Until(due))
		if first {
			first = false
			time.Sleep(stall)
		}
	}
	var wg sync.WaitGroup
	lat := make([]time.Duration, len(arrivals))
	lags := openLoop(start, arrivals, wait, func(k int, due time.Time) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(service)
			lat[k] = time.Since(due)
		}()
	})
	wg.Wait()
	if lags[0] < stall {
		t.Errorf("lag of the stalled arrival %v, want at least %v", lags[0], stall)
	}
	// Arrivals 1 and 2 came due during the stall: both are late, and their
	// latency includes the wait although their own service took 2 ms.
	for k, minLag := range map[int]time.Duration{1: stall - 10*time.Millisecond, 2: stall - 20*time.Millisecond} {
		if lags[k] < minLag {
			t.Errorf("arrival %d lag %v, want at least %v", k, lags[k], minLag)
		}
		if lat[k] < lags[k]+service {
			t.Errorf("arrival %d latency %v does not include its lag %v", k, lat[k], lags[k])
		}
	}
	// The generator has caught up by the last arrival.
	if lags[3] > 20*time.Millisecond {
		t.Errorf("arrival 3 lag %v after the stall had passed", lags[3])
	}
}

// TestStaleHandleReregister drives an AP past the server's per-connection
// handle cap: the first window's handle is evicted, its next decode is
// answered "unknown channel handle", and the AP re-registers and resends once.
func TestStaleHandleReregister(t *testing.T) {
	w := &workload{name: "test", mod: modulation.QPSK, keyed: true, stub: true}
	st, err := newStubStack()
	if err != nil {
		t.Fatal(err)
	}
	a, err := dialAP(w, st.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = a.c.Close()
		if err := st.close(); err != nil {
			t.Error(err)
		}
	}()
	src := rng.New(1)
	reqs := make([]request, fronthaul.MaxChannelsPerConn+1)
	for i := range reqs {
		reqs[i] = request{h: channel.Rayleigh{}.Generate(src, 8, 8), y: make([]complex128, 8), bits: make([]byte, 16)}
	}
	for i := range reqs {
		if res := a.do(&reqs[i]); res.status != statusOK || res.violation != "" {
			t.Fatalf("decode %d: status %d, error %v, violation %q", i, res.status, res.err, res.violation)
		}
	}
	if got := a.stale.Load(); got != 0 {
		t.Fatalf("%d stale retries before any handle was reused", got)
	}
	if res := a.do(&reqs[0]); res.status != statusOK || res.violation != "" {
		t.Fatalf("decode on the evicted window: status %d, error %v, violation %q", res.status, res.err, res.violation)
	}
	if stale, reg := a.stale.Load(), a.registers.Load(); stale != 1 || reg != int64(len(reqs))+1 {
		t.Fatalf("stale retries %d, registrations %d; want 1 and %d", stale, reg, len(reqs)+1)
	}
	if ok, failed := a.ok.Load(), a.failed.Load(); ok != int64(len(reqs))+1 || failed != 0 {
		t.Fatalf("the retry was counted as ok %d / failed %d; want %d / 0", ok, failed, len(reqs)+1)
	}
}

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []namedUnit             `json:"end_to_end"`
	PerLayer  []namedUnit             `json:"per_layer"`
}

type namedUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return &bj
}

// checkEmitted asserts that a run's JSON line carries every metric the file
// names, finite and with the file's unit, and nothing else.
func checkEmitted(t *testing.T, res jsonResult, want []namedUnit) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s not emitted", m.Name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s = %v", m.Name, got.Value)
		case got.Unit == "" || got.Unit != m.Unit:
			t.Errorf("%s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and (unless -short) traced,
// and holds the output to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the bench has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the bench", i, bj.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			// A two-second run decodes too few bits to hold to the BER ceiling.
			brief := *w
			brief.berCeiling = 0
			o := &options{w: &brief, seed: 1, seconds: 2, warmups: 20, setups: 1, outDir: t.TempDir()}
			r, err := runUntraced(o)
			if err != nil {
				t.Fatal(err)
			}
			res := r.result(endToEnd)
			if !res.Correct {
				t.Errorf("untraced run incorrect: %v", r.violations)
			}
			checkEmitted(t, res, bj.EndToEnd)
			if testing.Short() {
				return
			}
			o.seconds = 3
			if r, err = runTraced(o); err != nil {
				t.Fatal(err)
			}
			res = r.result(perLayer)
			if !res.Correct {
				t.Errorf("traced run incorrect: %v", r.violations)
			}
			checkEmitted(t, res, bj.PerLayer)
			if _, err := os.Stat(o.outDir + "/" + w.name + ".trace.json"); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}
