package telemetry

import "sort"

// Exemplar trace sampling: aggregate histograms say *that* a p99 exists,
// exemplars say *which requests it was*. The recorder pins the N worst-slack
// traces of every fixed-size window of completed requests — a bounded set
// that names the requests behind a latency or deadline regression among the
// thousands of ordinary ones the ring holds beside them.
// Badness is deadline slack when the request carried a deadline (most
// negative slack first) and end-to-end latency otherwise (slowest first).

const (
	// DefaultExemplarCount is the number of worst traces pinned per window.
	DefaultExemplarCount = 8
	// DefaultExemplarWindow is the window length in completed traces.
	DefaultExemplarWindow = 1024
)

// exemplarScore orders traces by badness: lower is worse. Deadline-bearing
// traces score their slack (negative = missed, most negative = worst);
// deadline-free traces score −e2e so the slowest sort first. The two groups
// share one scale poorly, but within a workload requests are homogeneous and
// the deadline-bearing ones are the interesting tail anyway.
func exemplarScore(t *Trace) float64 {
	if t.DeadlineMicros > 0 {
		return t.SlackMicros
	}
	return -t.Stages[StageE2E]
}

// pinExemplarLocked folds one finished trace into the current window's
// worst-N set and rotates the window on its boundary. Caller holds ringMu
// and has assigned t.Seq.
func (r *Recorder) pinExemplarLocked(t Trace) {
	score := exemplarScore(&t)
	i := sort.Search(len(r.exCur), func(i int) bool { return exemplarScore(&r.exCur[i]) > score })
	if i < DefaultExemplarCount {
		r.exCur = append(r.exCur, Trace{})
		copy(r.exCur[i+1:], r.exCur[i:])
		r.exCur[i] = t
		if len(r.exCur) > DefaultExemplarCount {
			r.exCur = r.exCur[:DefaultExemplarCount]
		}
	}
	if t.Seq%DefaultExemplarWindow == 0 {
		r.exPinned = append(r.exPinned[:0], r.exCur...)
		r.exCur = r.exCur[:0]
	}
}

// Exemplars returns the pinned worst-slack traces: the last completed
// window's set plus the in-progress window's current candidates, worst
// first. Safe on a nil receiver (returns nil).
func (r *Recorder) Exemplars() []Trace {
	if r == nil {
		return nil
	}
	r.ringMu.Lock()
	defer r.ringMu.Unlock()
	out := make([]Trace, 0, len(r.exPinned)+len(r.exCur))
	out = append(out, r.exPinned...)
	out = append(out, r.exCur...)
	sort.SliceStable(out, func(i, j int) bool { return exemplarScore(&out[i]) < exemplarScore(&out[j]) })
	return out
}
