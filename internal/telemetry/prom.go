package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"quamax/internal/metrics"
)

// Mux returns the telemetry HTTP handler quamax-serve mounts on
// -telemetry-addr: Prometheus text exposition at /metrics, the runtime
// profiler under /debug/pprof/, and the retained trace ring as JSON at
// /traces (?exemplars=1 returns the pinned worst-slack exemplars instead —
// the requests behind the p99). stats
// supplies the sample set /metrics renders — the same function the fronthaul
// server answers stats polls from (fronthaul.Server.Stats).
func Mux(r *Recorder, stats func() []metrics.Sample) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, stats())
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if req.URL.Query().Get("exemplars") == "1" {
			_ = enc.Encode(r.Exemplars())
			return
		}
		_ = enc.Encode(r.Traces())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// WritePrometheus renders a sample set in canonical order (metrics.Collect)
// in the Prometheus text exposition format, version 0.0.4: one HELP/TYPE
// header per family, label pairs in key order, and for a histogram the
// cumulative le-labeled buckets of every nonzero-delta bound, the mandatory
// le="+Inf", then _sum and _count — an empty histogram still emits those
// three, so the series exists from first scrape.
func WritePrometheus(w io.Writer, samples []metrics.Sample) {
	for i, s := range samples {
		if i == 0 || samples[i-1].Name != s.Name {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", s.Name, s.Help, s.Name, s.Kind)
		}
		pairs := make([]string, len(s.Labels), len(s.Labels)+1)
		for j, l := range s.Labels {
			pairs[j] = fmt.Sprintf("%s=%q", l.Key, l.Value)
		}
		// series renders one sample line: name+suffix, the label pairs plus
		// any extra ones, and the value.
		series := func(suffix, value string, extra ...string) {
			labels := ""
			if all := append(pairs, extra...); len(all) > 0 {
				labels = "{" + strings.Join(all, ",") + "}"
			}
			fmt.Fprintf(w, "%s%s%s %s\n", s.Name, suffix, labels, value)
		}
		if s.Kind != metrics.KindHistogram {
			series("", promFloat(s.Value))
			continue
		}
		var cum uint64
		for b, c := range s.Hist.Counts {
			if bound := metrics.BucketBound(b); c != 0 && !math.IsInf(bound, 1) {
				cum += c
				series("_bucket", strconv.FormatUint(cum, 10), fmt.Sprintf("le=%q", promFloat(bound)))
			}
		}
		series("_bucket", strconv.FormatUint(s.Hist.Count, 10), `le="+Inf"`)
		series("_sum", promFloat(s.Hist.Sum))
		series("_count", strconv.FormatUint(s.Hist.Count, 10))
	}
}

// promFloat formats a value per the exposition format (no exponent-less
// digit spam, +Inf/-Inf/NaN spellings).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
