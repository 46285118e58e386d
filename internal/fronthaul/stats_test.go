package fronthaul

import (
	"bytes"
	"context"
	"net"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/metrics"
	"quamax/internal/modulation"
	"quamax/internal/router"
	"quamax/internal/sched"
	"quamax/internal/telemetry"
)

func TestStatsCodecRoundTrip(t *testing.T) {
	want := fuzzStatsResponse()
	payload, err := encodeStatsResponse(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeStatsResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("stats round trip:\nwant %+v\ngot  %+v", want, got)
	}
	// Help is the one field that stays behind.
	helped := *want
	helped.Samples = append([]metrics.Sample(nil), want.Samples...)
	helped.Samples[0].Help = "stays server-side"
	if withHelp, err := encodeStatsResponse(&helped); err != nil || !bytes.Equal(withHelp, payload) {
		t.Fatalf("Help changed the wire form (err %v)", err)
	}

	// An empty set (a server nobody gave a Stats function) round-trips too.
	bare := &StatsResponse{ID: 3, Err: "pool draining"}
	payload, err = encodeStatsResponse(bare)
	if err != nil {
		t.Fatal(err)
	}
	got, err = decodeStatsResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, got) {
		t.Fatalf("bare stats round trip: %+v", got)
	}

	req := &StatsRequest{ID: 99}
	back, err := decodeStatsRequest(encodeStatsRequest(req))
	if err != nil || back.ID != 99 {
		t.Fatalf("stats request round trip: %+v, %v", back, err)
	}
}

// malformedStats lists every way a stats-response payload can break the
// sample-set grammar, hand-assembled from the wire primitives. The corruption
// test demands each is rejected; the fuzzer starts from them.
func malformedStats(tb testing.TB) []struct {
	name    string
	payload []byte
} {
	tb.Helper()
	value := appendF64(nil, 1)
	sample := func(name string, kind byte, body []byte, labels ...string) []byte {
		b := append(appendStr16(nil, name), byte(len(labels)/2))
		for _, l := range labels {
			b = appendStr16(b, l)
		}
		return append(append(b, kind), body...)
	}
	set := func(n uint32, samples ...[]byte) []byte {
		b := appendU32(appendStr16(appendU64(nil, 9), ""), n)
		for _, s := range samples {
			b = append(b, s...)
		}
		return b
	}
	// hist assembles a histogram body: the declared bucket count, then
	// (index, count) pairs, then sum/min/max.
	hist := func(declared byte, pairs ...uint64) []byte {
		b := []byte{declared}
		for i := 0; i+1 < len(pairs); i += 2 {
			b = appendU64(append(b, byte(pairs[i])), pairs[i+1])
		}
		return appendF64(appendF64(appendF64(b, 1), 2), 3)
	}
	if _, err := decodeStatsResponse(set(2, sample("a", 1, value, "k", "x"), sample("h", 2, hist(2, 5, 1, 9, 4)))); err != nil {
		tb.Fatalf("the hand-assembled baseline does not decode: %v", err)
	}
	full, err := encodeStatsResponse(fuzzStatsResponse())
	if err != nil {
		tb.Fatal(err)
	}
	truncHist := set(1, sample("h", 2, hist(2, 5, 1, 9, 4)))
	return []struct {
		name    string
		payload []byte
	}{
		{"samples out of name order", set(2, sample("b", 0, value), sample("a", 0, value))},
		{"samples out of label order", set(2, sample("a", 0, value, "k", "y"), sample("a", 0, value, "k", "x"))},
		{"duplicate (name, labels)", set(2, sample("a", 0, value, "k", "x"), sample("a", 1, value, "k", "x"))},
		{"unsorted label keys", set(1, sample("a", 0, value, "z", "1", "b", "2"))},
		{"duplicate label key", set(1, sample("a", 0, value, "k", "1", "k", "2"))},
		{"unknown kind byte", set(1, sample("a", 3, value))},
		{"truncated histogram", truncHist[:len(truncHist)-30]},
		{"zero-count bucket", set(1, sample("h", 2, hist(1, 5, 0)))},
		{"repeated bucket index", set(1, sample("h", 2, hist(2, 5, 1, 5, 1)))},
		{"bucket index past NumBuckets", set(1, sample("h", 2, hist(1, metrics.NumBuckets, 1)))},
		{"bucket count past NumBuckets", set(1, sample("h", 2, hist(metrics.NumBuckets+1)))},
		{"bucket count larger than the payload", set(1, sample("h", 2, hist(90)))},
		{"sample count larger than the payload", set(1000, sample("a", 0, value))},
		{"label count larger than the payload", set(1, append(append(appendStr16(nil, "a"), 200), value...))},
		{"trailing bytes", append(set(1, sample("a", 0, value)), 0)},
		{"truncated full response", full[:len(full)-5]},
	}
}

func TestStatsCodecRejectsCorruption(t *testing.T) {
	for _, m := range malformedStats(t) {
		if _, err := decodeStatsResponse(m.payload); err == nil {
			t.Errorf("%s accepted", m.name)
		}
	}
	if _, err := decodeStatsRequest([]byte{1, 2}); err == nil {
		t.Fatal("truncated stats request accepted")
	}
	if _, err := decodeStatsRequest(append(encodeStatsRequest(&StatsRequest{ID: 1}), 0)); err == nil {
		t.Fatal("stats request trailing bytes accepted")
	}

	// The encoder refuses what the decoder would: it never emits a frame
	// outside the canonical form.
	c := func(name string, labels ...metrics.Label) metrics.Sample {
		return metrics.Sample{Name: name, Labels: labels}
	}
	k := func(key, value string) metrics.Label { return metrics.Label{Key: key, Value: value} }
	for name, set := range map[string][]metrics.Sample{
		"unsorted set":        {c("b"), c("a")},
		"duplicate sample":    {c("a", k("k", "x")), c("a", k("k", "x"))},
		"unsorted label keys": {c("a", k("z", "1"), k("b", "2"))},
		"unknown kind":        {{Name: "a", Kind: 3}},
		"oversized histogram": {{Name: "h", Kind: metrics.KindHistogram, Hist: metrics.Hist{Counts: make([]uint64, metrics.NumBuckets+1)}}},
	} {
		if _, err := encodeStatsResponse(&StatsResponse{ID: 1, Samples: set}); err == nil {
			t.Errorf("encoder accepted %s", name)
		}
	}
}

// findSample returns the sample of the set with this name whose labels
// include every given key, value pair.
func findSample(t *testing.T, samples []metrics.Sample, name string, kv ...string) metrics.Sample {
	t.Helper()
next:
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if v, ok := s.Label(kv[i]); !ok || v != kv[i+1] {
				continue next
			}
		}
		return s
	}
	t.Errorf("no sample %s%v in the set", name, kv) // not Fatal: polled from goroutines too
	return metrics.Sample{}
}

// Stats over the wire: an AP decodes through a telemetry-instrumented pool,
// then polls the serving statistics and sees the decode it just made — the
// pool counters, the finished trace, and the server-side wire histogram —
// reconciled with each other.
func TestPoolStatsOverWire(t *testing.T) {
	rec := telemetry.New(telemetry.Config{})
	dec := testDecoder(t)
	dec.SetTelemetry(rec)
	pool, err := sched.New(sched.Config{
		Pool:      []backend.Backend{backend.AnnealerFromDecoder("qpu0", dec)},
		Telemetry: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	server := NewPoolServer(pool)
	server.Telemetry = rec
	server.Stats = func() []metrics.Sample {
		return metrics.Collect(pool.Stats().Samples(), rec.Snapshot().Samples())
	}
	cliConn, srvConn := net.Pipe()
	go server.handleConn(srvConn)
	client := NewClient(cliConn)
	defer client.Close()

	const decodes = 3
	for i := 0; i < decodes; i++ {
		in := testInstance(t, int64(300+i), modulation.QPSK, 4)
		if _, err := client.Decode(in.Mod, in.H, in.Y); err != nil {
			t.Fatal(err)
		}
	}

	stats, err := client.PoolStats()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"quamax_pool_submitted_total", "quamax_pool_completed_total"} {
		if got := findSample(t, stats.Samples, name).Value; got != decodes {
			t.Fatalf("%s = %g, want %d", name, got, decodes)
		}
	}
	if got := findSample(t, stats.Samples, "quamax_backend_solved_total", "backend", "qpu0").Value; got != decodes {
		t.Fatalf("qpu0 solved %g, want %d", got, decodes)
	}
	if got := findSample(t, stats.Samples, "quamax_traces_finished_total", "outcome", "ok").Value; got != decodes {
		t.Fatalf("finished traces %g, want %d", got, decodes)
	}
	if got := findSample(t, stats.Samples, "quamax_stage_latency_micros", "stage", "e2e").Hist.Count; got != decodes {
		t.Fatalf("e2e histogram holds %d observations, want %d", got, decodes)
	}
	wire := findSample(t, stats.Samples, "quamax_fronthaul_wire_micros")
	if wire.Kind != metrics.KindHistogram || wire.Hist.Count != decodes {
		t.Fatalf("wire histogram holds %d observations, want %d", wire.Hist.Count, decodes)
	}
	if wire.Hist.Sum <= 0 || wire.Hist.Max < wire.Hist.Min {
		t.Fatalf("wire histogram not populated: %+v", wire.Hist)
	}
	// The anneal-quality plane rode along: one class, with reads accounted.
	if findSample(t, stats.Samples, "quamax_quality_solves_total", "class", "QPSK/4").Value == 0 ||
		findSample(t, stats.Samples, "quamax_quality_reads_total", "class", "QPSK/4").Value == 0 {
		t.Fatal("quality class empty")
	}
	for _, s := range stats.Samples {
		if s.Help != "" {
			t.Fatalf("Help crossed the wire on %s", s.Name)
		}
	}
}

// A server started without a telemetry recorder still reports how long its
// pool has been up: uptime is the scheduler's, not the recorder's.
func TestStatsUptimeWithoutRecorder(t *testing.T) {
	server := newDecoderServer(t, testDecoder(t), 1)
	cliConn, srvConn := net.Pipe()
	go server.handleConn(srvConn)
	client := NewClient(cliConn)
	defer client.Close()
	time.Sleep(time.Millisecond)
	stats, err := client.PoolStats()
	if err != nil {
		t.Fatal(err)
	}
	if up := findSample(t, stats.Samples, "quamax_uptime_seconds"); up.Kind != metrics.KindGauge || up.Value <= 0 {
		t.Fatalf("uptime without a recorder: %+v", up)
	}
}

// countingShard is a router shard that counts its Stats calls and reports the
// count, so a torn poll (totals and breakdown from different snapshots) would
// show as disagreeing numbers.
type countingShard struct{ calls atomic.Uint64 }

func (s *countingShard) Dispatch(context.Context, *backend.Problem, time.Duration) (*backend.Result, error) {
	return &backend.Result{}, nil
}

func (s *countingShard) Stats() metrics.PoolStats {
	n := s.calls.Add(1)
	return metrics.PoolStats{Submitted: n, Completed: n}
}

// One stats poll takes exactly one snapshot of every shard, however many
// connections poll at once.
func TestStatsOnePollOneSnapshotPerShard(t *testing.T) {
	shards := []*countingShard{{}, {}, {}}
	rt, err := router.New(router.Config{Shards: []router.Shard{shards[0], shards[1], shards[2]}})
	if err != nil {
		t.Fatal(err)
	}
	server := NewPoolServer(rt)
	server.Stats = func() []metrics.Sample { return metrics.Collect(rt.Samples()) }

	const conns, polls = 4, 8
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		cliConn, srvConn := net.Pipe()
		go server.handleConn(srvConn)
		client := NewClient(cliConn)
		defer client.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 0; p < polls; p++ {
				stats, err := client.PoolStats()
				if err != nil {
					t.Error(err)
					return
				}
				for i := range shards {
					shard := strconv.Itoa(i)
					sub := findSample(t, stats.Samples, "quamax_pool_submitted_total", "shard", shard).Value
					done := findSample(t, stats.Samples, "quamax_pool_completed_total", "shard", shard).Value
					if sub != done || sub == 0 {
						t.Errorf("shard %d: submitted %g and completed %g come from different snapshots", i, sub, done)
					}
				}
			}
		}()
	}
	wg.Wait()
	for i, s := range shards {
		if got := s.calls.Load(); got != conns*polls {
			t.Errorf("shard %d snapshotted %d times over %d polls", i, got, conns*polls)
		}
	}
}
