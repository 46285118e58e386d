package telemetry

import (
	"testing"
	"time"
)

// finishWithSlack completes one deadline-bearing trace with the given slack.
func finishWithSlack(r *Recorder, class string, slack float64) {
	r.FinishTrace(Trace{
		Class:          class,
		DeadlineMicros: 1000,
		SlackMicros:    slack,
		Stages:         [NumStages]float64{StageE2E: 1000 - slack},
	})
}

// The recorder pins the worst-slack traces of each window, worst first, and
// caps the set at DefaultExemplarCount.
func TestExemplarsWorstN(t *testing.T) {
	r := New(Config{Now: testClock(time.Unix(0, 0))})
	slacks := []float64{500, -30, 200, -900, 100, -5, 700, 42, -61, 8, -400, 330, 17, -2}
	for _, s := range slacks {
		finishWithSlack(r, "QPSK/4", s)
	}
	ex := r.Exemplars()
	if len(ex) != DefaultExemplarCount {
		t.Fatalf("pinned %d exemplars, want %d", len(ex), DefaultExemplarCount)
	}
	want := []float64{-900, -400, -61, -30, -5, -2, 8, 17}
	for i, s := range want {
		if ex[i].SlackMicros != s {
			t.Fatalf("exemplar %d has slack %g, want %g (got %+v)", i, ex[i].SlackMicros, s, ex)
		}
	}
}

// Deadline-free traces rank by end-to-end latency: the slowest requests are
// the exemplars.
func TestExemplarsLatencyFallback(t *testing.T) {
	r := New(Config{Now: testClock(time.Unix(0, 0))})
	for _, e2e := range []float64{10, 5000, 40, 900, 120, 7, 3000, 65, 2, 450, 1800, 30} {
		r.FinishTrace(Trace{Class: "QPSK/4", Stages: [NumStages]float64{StageE2E: e2e}})
	}
	ex := r.Exemplars()
	want := []float64{5000, 3000, 1800, 900, 450, 120, 65, 40}
	if len(ex) != len(want) {
		t.Fatalf("pinned %d latency exemplars, want %d", len(ex), len(want))
	}
	for i, e2e := range want {
		if ex[i].Stages[StageE2E] != e2e {
			t.Fatalf("latency exemplars wrong: %+v", ex)
		}
	}
}

// On the window boundary the current set is promoted to pinned and a fresh
// window starts; Exemplars reports both, so a regression spotted late in the
// previous window is still named while the new window fills.
func TestExemplarWindowRotation(t *testing.T) {
	r := New(Config{Now: testClock(time.Unix(0, 0))})
	for i := 0; i < DefaultExemplarWindow; i++ { // window 1 (seq 1..DefaultExemplarWindow)
		s := float64(100 + i)
		if i == DefaultExemplarWindow-2 {
			s = -777
		}
		finishWithSlack(r, "QPSK/4", s)
	}
	for _, s := range []float64{50, -42} { // window 2 in progress
		finishWithSlack(r, "QPSK/4", s)
	}
	ex := r.Exemplars()
	if len(ex) != DefaultExemplarCount+2 {
		t.Fatalf("%d exemplars across windows, want %d pinned + 2 current", len(ex), DefaultExemplarCount)
	}
	if ex[0].SlackMicros != -777 || ex[1].SlackMicros != -42 || ex[2].SlackMicros != 50 {
		t.Fatalf("worst-first order lost across windows: %+v", ex)
	}
}

// A zero Config pins by default: the set is capped at DefaultExemplarCount
// and the window turns over after exactly DefaultExemplarWindow traces; the
// nil recorder stays safe.
func TestExemplarConfig(t *testing.T) {
	r := New(Config{Now: testClock(time.Unix(0, 0))})
	finishWithSlack(r, "QPSK/4", -999)
	if got := r.Exemplars(); len(got) != 1 || got[0].SlackMicros != -999 {
		t.Fatalf("default recorder did not pin the miss: %+v", got)
	}
	for i := 1; i < DefaultExemplarWindow; i++ {
		finishWithSlack(r, "QPSK/4", float64(i))
	}
	if len(r.exPinned) != DefaultExemplarCount || len(r.exCur) != 0 {
		t.Fatalf("window of %d traces did not rotate: pinned=%d current=%d",
			DefaultExemplarWindow, len(r.exPinned), len(r.exCur))
	}
	if got := r.Exemplars(); len(got) != DefaultExemplarCount || got[0].SlackMicros != -999 {
		t.Fatalf("pinned set after rotation: %+v", got)
	}
	var nilRec *Recorder
	if nilRec.Exemplars() != nil {
		t.Fatal("nil recorder returned exemplars")
	}
}

// The shutdown dump carries the exemplars alongside the ring.
func TestDumpCarriesExemplars(t *testing.T) {
	r := New(Config{Now: testClock(time.Unix(0, 0))})
	finishWithSlack(r, "QPSK/4", 10)
	finishWithSlack(r, "QPSK/4", -77)
	finishWithSlack(r, "QPSK/4", 20)
	d := BuildDump(r, r.Snapshot().Samples())
	if len(d.Exemplars) != 3 || d.Exemplars[0].SlackMicros != -77 || d.Exemplars[1].SlackMicros != 10 {
		t.Fatalf("dump exemplars: %+v", d.Exemplars)
	}
}
