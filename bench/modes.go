package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"

	"quamax/internal/metrics"
)

// curveSteps are the offered loads of -curve, as shares of the measured
// saturation rate.
var curveSteps = []float64{0.25, 0.5, 0.75, 0.9, 1.1}

// runCurve prints the latency-vs-offered-load curve of one workload: it
// measures the saturation rate in a closed loop, then offers Poisson load at
// fixed shares of it and reports, per step, the achieved rate, the latency
// percentiles and whether a backlog was growing. The knee is the highest step
// whose p90 met the workload's limit without a growing backlog. Informational:
// the tail did not repeat well enough to gate on.
func runCurve(o *options) error {
	in, err := o.w.generate(o.seed, connections())
	if err != nil {
		return err
	}
	sv, err := setup(o, in, nil)
	if err != nil {
		return err
	}
	step := o.phase(1.0 / float64(len(curveSteps)+1))
	sat := satRate(sv.g.closedLoop(0, step, o.w.limit))
	for _, line := range o.describe(in, fmt.Sprintf("curve: %.1f s per step; saturation %.1f requests/s (closed loop)", step.Seconds(), sat)) {
		fmt.Println("#", line)
	}
	fmt.Printf("%-8s %12s %12s %10s %10s %10s %14s %8s\n", "load", "offered/s", "achieved/s", "p50 ms", "p90 ms", "p99 ms", "backlog/s", "failed")
	knee := math.NaN()
	src := o.arrivalSource()
	for _, share := range curveSteps {
		rate := share * sat
		rec, _ := sv.g.paced(src, rate, step, o.w.limit)
		// Backlog growth: the slope of requests outstanding, sampled at the
		// first arrival of each segment.
		growth := float64(rec.seg[segments-1].backlog-rec.seg[0].backlog) / (float64(segments-1) * rec.segLen.Seconds())
		growing := growth > 0.05*rate
		p90 := metrics.Percentile(rec.latMs, 90)
		// Achieved rate counts the time the stragglers took after the step.
		achieved := float64(rec.ok) / max(step, rec.lastOK.Sub(rec.start)).Seconds()
		fmt.Printf("%-8.2f %12.1f %12.1f %10.3f %10.3f %10.3f %14.1f %8d\n", share, rate, achieved,
			metrics.Percentile(rec.latMs, 50), p90, metrics.Percentile(rec.latMs, 99), growth, rec.failed+rec.shed)
		if !growing && rec.failed+rec.shed == 0 && p90 <= float64(o.w.limit)/float64(time.Millisecond) {
			knee = share
		}
	}
	if math.IsNaN(knee) {
		fmt.Printf("knee: no step had p90 <= %v with no growing backlog\n", o.w.limit)
	} else {
		fmt.Printf("knee (highest step with p90 <= %v and no growing backlog): %.2f x saturation = %.1f requests/s\n", o.w.limit, knee, knee*sat)
	}
	return sv.close()
}

// benchmarkFile is the part of BENCHMARK.json the repeatability table needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		var raw []byte
		if raw, err = os.ReadFile(path); err != nil {
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &bf, nil
	}
	return nil, err
}

// runChild runs one end-to-end benchmark run in a child process (peak RSS and
// set-up cost are per process) and returns its JSON line.
func runChild(workload string, seed int64, seconds float64) (*jsonResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var res jsonResult
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return &res, nil
}

// runAA runs n full sets (every workload, untraced, seeds seed, seed+1, …)
// back to back and prints, per workload and end-to-end metric, the median,
// the quartiles, the quartile spread as a share of the median and the largest
// gap between two runs, against the metric's bound: the same code measured
// against itself.
func runAA(n int, seed int64, seconds float64) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return fmt.Errorf("reading BENCHMARK.json for the bounds: %w", err)
	}
	values := make(map[string]map[string][]float64)
	for set := 0; set < n; set++ {
		for _, w := range workloads {
			res, err := runChild(w.name, seed+int64(set), seconds)
			if err != nil {
				return err
			}
			if values[w.name] == nil {
				values[w.name] = make(map[string][]float64)
			}
			for name, m := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %s done\n", set+1, n, w.name)
		}
	}
	fmt.Printf("| workload | metric | median | q1 | q3 | (q3-q1)/median | max pairwise gap | bound |\n|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			vs := append([]float64(nil), values[w.name][m.Name]...)
			sort.Float64s(vs)
			med := metrics.Median(vs)
			q1, q3 := metrics.Percentile(vs, 25), metrics.Percentile(vs, 75)
			fmt.Printf("| %s | %s | %.5g | %.5g | %.5g | %.3f | %.3f | %.2f |\n", w.name, m.Name, med, q1, q3,
				(q3-q1)/med, (vs[len(vs)-1]-vs[0])/med, m.Bound)
		}
	}
	return nil
}
