package metrics

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The summary statistics must treat NaN as a missing measurement (skipped)
// and ±Inf as a real extreme (propagated) — a single NaN from a failed
// measurement must never poison a whole BENCH column.
func TestMeanNaNAndInf(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, nan},
		{"all-NaN", []float64{nan, nan}, nan},
		{"NaN skipped", []float64{1, nan, 3}, 2},
		{"+Inf propagates", []float64{1, inf}, inf},
		{"-Inf propagates", []float64{-inf, 1}, -inf},
		{"opposing Infs", []float64{inf, -inf}, nan},
		{"plain", []float64{2, 4}, 3},
	}
	for _, c := range cases {
		got := Mean(c.xs)
		if math.IsNaN(c.want) != math.IsNaN(got) || (!math.IsNaN(c.want) && got != c.want) {
			t.Errorf("%s: Mean = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestPercentileNaNAndInf(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"empty", nil, 50, nan},
		{"all-NaN", []float64{nan, nan, nan}, 50, nan},
		{"NaN skipped", []float64{3, nan, 1}, 50, 2},
		{"NaN skipped p0", []float64{nan, 5, nan, 2}, 0, 2},
		{"NaN skipped p100", []float64{nan, 5, nan, 2}, 100, 5},
		{"Inf is the top rank", []float64{1, 2, inf}, 100, inf},
		{"interpolation toward Inf snaps", []float64{1, inf}, 50, inf},
		{"interpolation near finite snaps", []float64{1, 2, 3, inf}, 40, 2.2},
		{"opposing Infs stay ordered", []float64{-inf, inf}, 50, inf},
		{"plain interpolation", []float64{1, 2, 3, 4}, 50, 2.5},
	}
	for _, c := range cases {
		got := Percentile(c.xs, c.p)
		bad := math.IsNaN(c.want) != math.IsNaN(got)
		if !bad && !math.IsNaN(c.want) && math.Abs(got-c.want) > 1e-12 && got != c.want {
			bad = true
		}
		if bad {
			t.Errorf("%s: P%g = %g, want %g", c.name, c.p, got, c.want)
		}
	}
}

func TestBoxNaNAndInf(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	b := Box([]float64{1, 2, 3, 4, nan, inf})
	if b.Finite != 4 || b.Total != 6 {
		t.Fatalf("finite/total = %d/%d, want 4/6", b.Finite, b.Total)
	}
	if b.Median != 2.5 {
		t.Fatalf("median = %g, want 2.5 (NaN and Inf excluded)", b.Median)
	}
	if !math.IsInf(b.Mean, 1) {
		t.Fatalf("mean = %g, want +Inf (Inf propagates, NaN does not poison)", b.Mean)
	}
	empty := Box([]float64{nan, nan})
	if empty.Finite != 0 || empty.Total != 2 {
		t.Fatalf("all-NaN finite/total = %d/%d", empty.Finite, empty.Total)
	}
	if !math.IsNaN(empty.Median) || !math.IsNaN(empty.Mean) {
		t.Fatalf("all-NaN box should be NaN: %+v", empty)
	}
}

// Every PoolStats field must surface in String() when nonzero — the audit
// that keeps the log line honest as counters are added. The walk below fills
// each field with a distinct sentinel via reflection, so a newly added field
// fails this test until both String and (for floats) the rendering table
// below know about it.
func TestPoolStatsStringCoversEveryField(t *testing.T) {
	// Float fields print through format verbs, so their rendered form is
	// field-specific. New float fields must be added here.
	floatValue := map[string]float64{
		"UptimeMicros":  3.21e7, // %.1fs of v/1e6
		"SlotOccupancy": 0.56,   // %.0f%% of 100·v
		"BusyMicros":    9876,   // %.0fµs
		"Utilization":   0.0783, // %.1f%% of 100·v
		"SpendMicroUSD": 1234.5, // %.1fµUSD
		"EnergyMilliJ":  42.5,   // %.1fmJ
	}
	floatRender := map[string]string{
		"UptimeMicros":  "32.1s",
		"SlotOccupancy": "56%",
		"BusyMicros":    "9876µs",
		"Utilization":   "7.8%",
		"SpendMicroUSD": "1234.5µUSD",
		"EnergyMilliJ":  "42.5mJ",
	}

	var s PoolStats
	next := uint64(1001)
	want := map[string]string{} // field path → substring String() must contain
	var fill func(v reflect.Value, name, path string)
	fill = func(v reflect.Value, name, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				fill(v.Field(i), f.Name, path+f.Name+".")
			}
		case reflect.Slice:
			elem := reflect.New(v.Type().Elem()).Elem()
			fill(elem, name, path+"[0].")
			v.Set(reflect.Append(v, elem))
		case reflect.Map: // a counter per string key
			v.Set(reflect.MakeMap(v.Type()))
			v.SetMapIndex(reflect.ValueOf("class0"), reflect.ValueOf(next))
			want[path] = "class0=" + strconv.FormatUint(next, 10)
			next++
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(int64(next))
			want[path] = strconv.FormatUint(next, 10)
			next++
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(next)
			want[path] = strconv.FormatUint(next, 10)
			next++
		case reflect.Float64:
			fv, ok := floatValue[name]
			if !ok {
				t.Fatalf("float field %s has no sentinel — extend PoolStats.String and this test's rendering table", path)
			}
			v.SetFloat(fv)
			want[path] = floatRender[name]
		case reflect.String:
			v.SetString("be0")
			want[path] = "be0"
		default:
			t.Fatalf("field %s has unsupported kind %s — extend this test", path, v.Kind())
		}
	}
	fill(reflect.ValueOf(&s).Elem(), "PoolStats", "")

	out := s.String()
	for path, sub := range want {
		if !strings.Contains(out, sub) {
			t.Errorf("String() omits field %s (expected substring %q):\n%s", path, sub, out)
		}
	}
}

// Spend/energy accounting must treat non-finite addends as missing
// measurements: one NaN (or ±Inf) sample must never poison the merged
// aggregate a multi-pool deployment reports upward.
func TestPoolStatsMergeGuardsNonFiniteEconomics(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	a := PoolStats{Backends: []BackendStats{{Name: "qpu", SpendMicroUSD: 10, EnergyMilliJ: nan}}}
	b := PoolStats{Backends: []BackendStats{{Name: "qpu", SpendMicroUSD: inf, EnergyMilliJ: 5}}}
	m := a.Merge(b)
	if got := m.Backends[0].SpendMicroUSD; got != 10 {
		t.Errorf("merged spend = %g, want 10 (Inf addend dropped)", got)
	}
	if got := m.Backends[0].EnergyMilliJ; got != 5 {
		t.Errorf("merged energy = %g, want 5 (NaN addend dropped)", got)
	}
	if out := (PoolStats{Backends: []BackendStats{{Name: "be0", SpendMicroUSD: nan, EnergyMilliJ: inf}}}).String(); strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("String renders non-finite economics:\n%s", out)
	}
}

// Counter groups must print whenever any member is nonzero, not only when
// the group's headline counter is.
func TestPoolStatsStringPartialGroups(t *testing.T) {
	out := PoolStats{LLRSaturations: 7}.String()
	if !strings.Contains(out, "llr-saturations=7") {
		t.Fatalf("saturations without soft decodes omitted:\n%s", out)
	}
	out = PoolStats{ChannelCache: ChannelCacheStats{Evictions: 3}}.String()
	if !strings.Contains(out, "evictions=3") {
		t.Fatalf("evictions without lookups omitted:\n%s", out)
	}
}
