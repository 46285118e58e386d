package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"quamax/internal/modulation"
)

// Tiny presets so the goldens run in seconds: each experiment's table at its
// tiny preset is pinned byte for byte in testdata/<id>.golden. The scientific
// shape checks are in shape_test.go, asserted on the tables' numbers at the
// quick presets.

var update = flag.Bool("update", false, "rewrite the experiment golden files")

func tinyEnv() *Env { return NewEnv() }

// golden compares the rendered table with testdata/<id>.golden. Host-time
// columns (time.Since cells, the only nondeterminism in any table) render
// as "~".
func golden(t *testing.T, id string, tab *Table, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	masked := *tab
	masked.Columns = append([]Column(nil), tab.Columns...)
	for c := range masked.Columns {
		if masked.Columns[c].HostTime {
			masked.Columns[c].format = func(any) string { return "~" }
		}
	}
	got := masked.String()
	path := filepath.Join("testdata", id+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s: table moved (rerun with -update if intended):\n%s", id, got)
	}
}

// TestGoldensCoverRegistry fails when a registered experiment has no golden
// (its tiny-preset test is missing) or a golden names no experiment.
func TestGoldensCoverRegistry(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	goldens := map[string]bool{}
	for _, f := range files {
		goldens[strings.TrimSuffix(filepath.Base(f), ".golden")] = true
	}
	for _, x := range Registry {
		if !goldens[x.ID] {
			t.Errorf("experiment %s is registered but has no testdata/%s.golden", x.ID, x.ID)
		}
		delete(goldens, x.ID)
	}
	for id := range goldens {
		t.Errorf("testdata/%s.golden names no registered experiment", id)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Columns: []Column{col("a", "%d"), col("bee", "%v")}, Notes: []string{"n"}}
	tab.AddRow(1, "2,3")
	s := tab.String()
	for _, want := range []string{"## T", "a", "bee", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
	csv := tab.CSV()
	if !strings.Contains(csv, "a,bee") || !strings.Contains(csv, "1,2;3") {
		t.Fatalf("CSV wrong:\n%s", csv)
	}
}

func TestTable1Smoke(t *testing.T) {
	cfg := Table1Quick()
	cfg.Instances = 3
	tab, err := Table1(nil, cfg)
	golden(t, "table1", tab, err)
}

func TestTable2MatchesPaper(t *testing.T) {
	tab, err := Table2()
	golden(t, "table2", tab, err)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	s := tab.String()
	// Spot-check paper entries: 10x10 BPSK = 10 (40); 60x60 64-QAM infeasible.
	if !strings.Contains(s, "10 (40)") {
		t.Fatalf("missing 10x10 BPSK footprint:\n%s", s)
	}
	if tab.Rows[3][4].(footprint).feasible {
		t.Fatalf("60x60 64-QAM should be infeasible: %v", tab.Rows[3])
	}
	// 60x60 BPSK (960 qubits) feasible — the paper's headline size.
	if !tab.Rows[3][1].(footprint).feasible {
		t.Fatalf("60x60 BPSK should be feasible: %v", tab.Rows[3])
	}
	// 20x20 16-QAM (80 logical, M=20) infeasible.
	if tab.Rows[1][3].(footprint).feasible {
		t.Fatalf("20x20 16-QAM should be infeasible: %v", tab.Rows[1])
	}
}

func TestFig4Smoke(t *testing.T) {
	e := tinyEnv()
	cfg := Fig4Quick()
	cfg.Anneals = 60
	cfg.TopRanks = 2
	tab, err := Fig4(e, cfg)
	golden(t, "fig4", tab, err)
}

func TestFig5Smoke(t *testing.T) {
	e := tinyEnv()
	cfg := Fig5Quick()
	cfg.JFs = []float64{2, 8}
	cfg.BPSKUsers = []int{8}
	cfg.QPSKUsers = []int{4}
	cfg.Instances = 2
	cfg.Anneals = 50
	tab, err := Fig5(e, cfg)
	golden(t, "fig5", tab, err)
}

func TestFig6Smoke(t *testing.T) {
	e := tinyEnv()
	cfg := Fig6Quick()
	cfg.AnnealTimes = []float64{1, 10}
	cfg.JFs = []float64{4}
	cfg.QPSKUsers = []int{4}
	cfg.Instances = 2
	cfg.Anneals = 40
	tab, err := Fig6(e, cfg)
	golden(t, "fig6", tab, err)
}

func TestFig7Smoke(t *testing.T) {
	e := tinyEnv()
	cfg := Fig7Quick()
	cfg.PauseTimes = []float64{1}
	cfg.PausePositions = []float64{0.35}
	cfg.JFs = []float64{4}
	cfg.Users = 8
	cfg.Instances = 2
	cfg.Anneals = 40
	tab, err := Fig7(e, cfg)
	golden(t, "fig7", tab, err)
	if !e.Machine.ICE.Enabled {
		t.Fatal("Fig7 must restore the ICE setting")
	}
}

func TestFig8Smoke(t *testing.T) {
	e := tinyEnv()
	cfg := Fig8Quick()
	cfg.Users = 6
	cfg.Instances = 2
	cfg.Anneals = 50
	cfg.NaGrid = []int{1, 10}
	cfg.OptJFs = []float64{4}
	cfg.OptSps = []float64{0.35}
	tab, err := Fig8(e, cfg)
	golden(t, "fig8", tab, err)
}

func TestFig12Smoke(t *testing.T) {
	e := tinyEnv()
	cfg := Fig12Quick()
	cfg.Users = 6
	cfg.SNRs = []float64{10, 30}
	cfg.Anneals = 60
	cfg.Ranks = 2
	tab, err := Fig12(e, cfg)
	golden(t, "fig12", tab, err)
}

func TestFig14Smoke(t *testing.T) {
	e := tinyEnv()
	cfg := Fig14Quick()
	cfg.BPSKUsers = []int{12}
	cfg.QPSKUsers = []int{6}
	cfg.Instances = 2
	cfg.Anneals = 50
	tab, err := Fig14(e, cfg)
	golden(t, "fig14", tab, err)
}

func TestFig15Smoke(t *testing.T) {
	e := tinyEnv()
	cfg := Fig15Quick()
	cfg.Uses = 2
	cfg.Anneals = 50
	cfg.Grid = OptGrid{JFs: []float64{4}, PausePositions: []float64{0.35}}
	tab, err := Fig15(e, cfg)
	golden(t, "fig15", tab, err)
}

func TestEdgeConfigsCoverPaperSizes(t *testing.T) {
	full := edgeConfigs(false)
	want := map[modulation.Modulation]int{
		modulation.BPSK: 60, modulation.QPSK: 18, modulation.QAM16: 9,
	}
	for _, ec := range full {
		max := 0
		for _, u := range ec.users {
			if u > max {
				max = u
			}
		}
		if max != want[ec.mod] {
			t.Errorf("%v: max users %d, want %d", ec.mod, max, want[ec.mod])
		}
	}
}

func TestFig9Fig10Fig11Smoke(t *testing.T) {
	e := tinyEnv()
	cfg9 := Fig9Quick()
	cfg9.Instances = 2
	cfg9.Anneals = 40
	cfg9.NaGrid = []int{1, 10}
	cfg9.Grid = OptGrid{JFs: []float64{4}, PausePositions: []float64{0.35}}
	tab, err := Fig9(e, cfg9)
	golden(t, "fig9", tab, err)

	cfg10 := Fig10Quick()
	cfg10.Instances = 2
	cfg10.Anneals = 40
	cfg10.Grid = OptGrid{JFs: []float64{4}, PausePositions: []float64{0.35}}
	tab, err = Fig10(e, cfg10)
	golden(t, "fig10", tab, err)

	cfg11 := Fig11Quick()
	cfg11.Instances = 2
	cfg11.Anneals = 40
	cfg11.Grid = OptGrid{JFs: []float64{4}, PausePositions: []float64{0.35}}
	cfg11.FrameBytes = []int{50}
	tab, err = Fig11(e, cfg11)
	golden(t, "fig11", tab, err)
}

func TestFig13Smoke(t *testing.T) {
	e := tinyEnv()
	cfg := Fig13Quick()
	cfg.LeftUsers = map[modulation.Modulation][]int{
		modulation.BPSK:  {8},
		modulation.QPSK:  {4},
		modulation.QAM16: {2},
	}
	cfg.RightUsers = map[modulation.Modulation]int{
		modulation.BPSK: 8, modulation.QPSK: 4, modulation.QAM16: 2,
	}
	cfg.RightSNRs = []float64{20}
	cfg.Instances = 1
	cfg.Anneals = 40
	cfg.Grid = OptGrid{JFs: []float64{4}, PausePositions: []float64{0.35}}
	tab, err := Fig13(e, cfg)
	golden(t, "fig13", tab, err)
}

func TestTableFutureProjection(t *testing.T) {
	tab, err := TableFuture()
	golden(t, "future", tab, err)
	// The 60x60 BPSK footprint must shrink dramatically under Pegasus chains.
	if tab.Rows[0][3] != 960 || tab.Rows[0][5] != 360 {
		t.Fatalf("unexpected 60x60 BPSK projection row: %v", tab.Rows[0])
	}
}

func TestAblationReverseSmoke(t *testing.T) {
	e := tinyEnv()
	cfg := ReverseQuick()
	cfg.BPSKUsers = []int{8}
	cfg.QPSKUsers = []int{4}
	cfg.Instances = 2
	cfg.Anneals = 50
	tab, err := AblationReverse(e, cfg)
	golden(t, "reverse", tab, err)
}

func TestCodedSmoke(t *testing.T) {
	e := tinyEnv()
	cfg := CodedQuick()
	cfg.Subcarriers = 4
	cfg.Symbols = 2
	cfg.SNRs = []float64{14}
	cfg.Frames = 2
	cfg.Anneals = 30
	tab, err := Coded(e, cfg)
	golden(t, "coded", tab, err)
}

func TestSAComparisonSmoke(t *testing.T) {
	e := tinyEnv()
	cfg := SAQuick()
	cfg.BPSKUsers = []int{8}
	cfg.Instances = 2
	cfg.Anneals = 30
	cfg.SASweeps = 50
	tab, err := SAComparison(e, cfg)
	golden(t, "sa", tab, err)
}
