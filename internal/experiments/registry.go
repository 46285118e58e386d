package experiments

// Scale selects the preset a registered experiment runs at.
type Scale int

const (
	// Full is closer to the paper's statistics (cmd/quamax's default).
	Full Scale = iota
	// Quick is bench scale: minutes of compute for the whole set.
	Quick
)

// Experiment is one registered experiment: its ID on the command line, the
// paper artifact it regenerates, and how to run it at a scale.
type Experiment struct {
	ID       string
	Artifact string
	Run      func(e *Env, s Scale) (*Table, error)
}

// Registry lists every experiment, in the order `quamax -exp all` runs them.
// It is the one place an experiment is registered: cmd/quamax, the root
// BenchmarkExperiment loop, the golden test's coverage check and
// tools/docgate's docs/EXPERIMENTS.md check all iterate it.
var Registry = []Experiment{
	{"table1", "Table 1", presets(Table1, Table1Quick, Table1Full)},
	{"table2", "Table 2", unscaled(Table2)},
	{"fig4", "Fig. 4", presets(Fig4, Fig4Quick, Fig4Full)},
	{"fig5", "Fig. 5", presets(Fig5, Fig5Quick, Fig5Full)},
	{"fig6", "Fig. 6", presets(Fig6, Fig6Quick, Fig6Full)},
	{"fig7", "Fig. 7", presets(Fig7, Fig7Quick, Fig7Full)},
	{"fig8", "Fig. 8", presets(Fig8, Fig8Quick, Fig8Full)},
	{"fig9", "Fig. 9", presets(Fig9, Fig9Quick, Fig9Full)},
	{"fig10", "Fig. 10", presets(Fig10, Fig10Quick, Fig10Full)},
	{"fig11", "Fig. 11", presets(Fig11, Fig11Quick, Fig11Full)},
	{"fig12", "Fig. 12", presets(Fig12, Fig12Quick, Fig12Full)},
	{"fig13", "Fig. 13", presets(Fig13, Fig13Quick, Fig13Full)},
	{"fig14", "Fig. 14", presets(Fig14, Fig14Quick, Fig14Full)},
	{"fig15", "Fig. 15", presets(Fig15, Fig15Quick, Fig15Full)},
	{"future", "§8 outlook", unscaled(TableFuture)},
	{"reverse", "§8 [68]", presets(AblationReverse, ReverseQuick, ReverseFull)},
	{"coded", "§5.3.3 ext.", presets(Coded, CodedQuick, CodedFull)},
	{"sa", "§6", presets(SAComparison, SAQuick, SAFull)},
}

// presets binds an experiment to its Quick and Full configurations.
func presets[C any](run func(*Env, C) (*Table, error), quick, full func() C) func(*Env, Scale) (*Table, error) {
	return func(e *Env, s Scale) (*Table, error) {
		if s == Quick {
			return run(e, quick())
		}
		return run(e, full())
	}
}

// unscaled binds an experiment that is a closed-form table: no apparatus,
// the same at any scale.
func unscaled(run func() (*Table, error)) func(*Env, Scale) (*Table, error) {
	return func(*Env, Scale) (*Table, error) { return run() }
}
