package metrics

import (
	"reflect"
	"testing"
)

func TestSampleConstructorsSortLabels(t *testing.T) {
	base := []Label{{"shard", "1"}}
	s := Counter("x_total", "help", 3, append(base, Label{"backend", "qpu0"})...)
	if want := []Label{{"backend", "qpu0"}, {"shard", "1"}}; !reflect.DeepEqual(s.Labels, want) {
		t.Fatalf("labels %v, want %v", s.Labels, want)
	}
	if len(base) != 1 || base[0] != (Label{"shard", "1"}) {
		t.Fatalf("constructor disturbed the caller's labels: %v", base)
	}
	if v, ok := s.Label("backend"); !ok || v != "qpu0" {
		t.Fatalf(`Label("backend") = %q, %v`, v, ok)
	}
	if _, ok := s.Label("stage"); ok {
		t.Fatal("Label reported a key the sample does not carry")
	}
	if g := Gauge("g", "", 1); g.Labels != nil || g.Kind != KindGauge {
		t.Fatalf("unlabelled gauge: %+v", g)
	}
	if h := Histogram("h", "", Hist{Count: 2}); h.Kind != KindHistogram || h.Hist.Count != 2 {
		t.Fatalf("histogram sample: %+v", h)
	}
	if KindCounter.String() != "counter" || KindGauge.String() != "gauge" || KindHistogram.String() != "histogram" {
		t.Fatal("kind names are the Prometheus TYPE names")
	}
}

func TestCollectCanonicalOrder(t *testing.T) {
	got := Collect(
		[]Sample{Counter("b", "", 1), Counter("a", "", 2, Label{"k", "y"})},
		nil,
		[]Sample{Counter("a", "", 3, Label{"k", "x"}), Counter("a", "", 4), Counter("a", "", 5, Label{"k", "x"}, Label{"l", "0"})},
	)
	var order []float64
	for i, s := range got {
		order = append(order, s.Value)
		if i > 0 && got[i-1].Compare(s) >= 0 {
			t.Fatalf("set not strictly ascending at %d: %+v", i, got)
		}
	}
	// Fewer labels first, then pair by pair; names before everything.
	if want := []float64{4, 3, 5, 2, 1}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if a := Counter("a", "", 0, Label{"k", "x"}); a.Compare(a) != 0 {
		t.Fatal("a sample does not compare equal to itself")
	}
}

// Every numeric PoolStats field reaches some sample: a counter added to the
// struct without a line in Samples fails here, in the file that holds both.
func TestPoolStatsSamplesCoverEveryField(t *testing.T) {
	var s PoolStats
	next := 1001.0
	want := map[string]float64{}
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice:
			elem := reflect.New(v.Type().Elem()).Elem()
			fill(elem, path+"[0]")
			v.Set(reflect.Append(v, elem))
		case reflect.Map: // a counter per string key
			v.Set(reflect.MakeMap(v.Type()))
			v.SetMapIndex(reflect.ValueOf("class0"), reflect.ValueOf(uint64(next)))
		case reflect.Int:
			v.SetInt(int64(next))
		case reflect.Uint64:
			v.SetUint(uint64(next))
		case reflect.Float64:
			v.SetFloat(next)
		case reflect.String:
			v.SetString("be0")
			return
		default:
			t.Fatalf("field %s has unsupported kind %s — extend this test", path, v.Kind())
		}
		if v.Kind() != reflect.Struct && v.Kind() != reflect.Slice {
			want[path] = next
			next++
		}
	}
	fill(reflect.ValueOf(&s).Elem(), "PoolStats")
	want["PoolStats.UptimeMicros"] /= 1e6 // exported in seconds
	shard := Label{"shard", "3"}
	exported := map[float64]bool{}
	for _, sample := range s.Samples(shard) {
		exported[sample.Value] = true
		if v, _ := sample.Label("shard"); v != "3" {
			t.Errorf("%s lost the caller's label", sample.Name)
		}
	}
	for path, v := range want {
		if !exported[v] {
			t.Errorf("%s is exported by no sample", path)
		}
	}
}

// Behind a router every shard exports its own PoolStats under a shard label
// and readers sum: the sums must be what Router.Stats' Merge reports to
// in-process readers (slot occupancy, a mean, is the one series that does not
// add).
func TestPoolStatsSamplesSumToMerge(t *testing.T) {
	a, b := samplePool(), samplePool()
	b.Submitted, b.QueueDepth, b.ChannelCache = 4, 1, ChannelCacheStats{Hits: 3, Misses: 1, Evictions: 2}
	b.Backends = []BackendStats{
		{Name: "qpu0", Solved: 3, BusyMicros: 500, Utilization: 0.25, SpendMicroUSD: 7, EnergyMilliJ: 9},
		{Name: "sphere", Solved: 1, BusyMicros: 40, Utilization: 0.02},
	}
	key := func(s Sample) string {
		be, _ := s.Label("backend")
		ev, _ := s.Label("event")
		return s.Name + "/" + be + "/" + ev
	}
	sums := map[string]float64{}
	for _, s := range Collect(a.Samples(Label{"shard", "0"}), b.Samples(Label{"shard", "1"})) {
		sums[key(s)] += s.Value
	}
	for _, s := range a.Merge(b).Samples() {
		if s.Name == "quamax_pool_slot_occupancy" || s.Name == "quamax_uptime_seconds" {
			continue
		}
		if got := sums[key(s)]; got != s.Value {
			t.Errorf("%s: shards sum to %g, Merge reports %g", key(s), got, s.Value)
		}
	}
}
