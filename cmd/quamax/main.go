// Command quamax regenerates the paper's tables and figures at full scale.
//
// Usage:
//
//	quamax -exp table1              # one experiment
//	quamax -exp fig5,fig6 -quick    # several, at bench scale
//	quamax -exp all -csv out/       # everything, also writing CSV files
//
// Experiment IDs: table1 table2 fig4 fig5 fig6 fig7 fig8
// fig9 fig10 fig11 fig12 fig13 fig14 fig15.
//
// It also fronts a serving data center's metrics (the fronthaul stats frame):
//
//	quamax -top 127.0.0.1:9370             # one-shot serving stats
//	quamax -top 127.0.0.1:9370 -watch 2s   # live redrawing table
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"quamax/internal/experiments"
)

// runner executes one experiment at quick or full scale.
type runner struct {
	name  string
	quick func(e *experiments.Env) (*experiments.Table, error)
	full  func(e *experiments.Env) (*experiments.Table, error)
}

func runners(tracePath string) []runner {
	return []runner{
		{"table1",
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Table1(experiments.Table1Quick())
			},
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Table1(experiments.Table1Full())
			}},
		{"table2",
			func(e *experiments.Env) (*experiments.Table, error) { return experiments.Table2() },
			func(e *experiments.Env) (*experiments.Table, error) { return experiments.Table2() }},
		{"fig4",
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig4(e, experiments.Fig4Quick())
			},
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig4(e, experiments.Fig4Full())
			}},
		{"fig5",
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig5(e, experiments.Fig5Quick())
			},
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig5(e, experiments.Fig5Full())
			}},
		{"fig6",
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig6(e, experiments.Fig6Quick())
			},
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig6(e, experiments.Fig6Full())
			}},
		{"fig7",
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig7(e, experiments.Fig7Quick())
			},
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig7(e, experiments.Fig7Full())
			}},
		{"fig8",
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig8(e, experiments.Fig8Quick())
			},
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig8(e, experiments.Fig8Full())
			}},
		{"fig9",
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig9(e, experiments.Fig9Quick())
			},
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig9(e, experiments.Fig9Full())
			}},
		{"fig10",
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig10(e, experiments.Fig10Quick())
			},
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig10(e, experiments.Fig10Full())
			}},
		{"fig11",
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig11(e, experiments.Fig11Quick())
			},
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig11(e, experiments.Fig11Full())
			}},
		{"fig12",
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig12(e, experiments.Fig12Quick())
			},
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig12(e, experiments.Fig12Full())
			}},
		{"fig13",
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig13(e, experiments.Fig13Quick())
			},
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig13(e, experiments.Fig13Full())
			}},
		{"fig14",
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig14(e, experiments.Fig14Quick())
			},
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Fig14(e, experiments.Fig14Full())
			}},
		{"fig15",
			func(e *experiments.Env) (*experiments.Table, error) {
				cfg := experiments.Fig15Quick()
				cfg.TracePath = tracePath
				return experiments.Fig15(e, cfg)
			},
			func(e *experiments.Env) (*experiments.Table, error) {
				cfg := experiments.Fig15Full()
				cfg.TracePath = tracePath
				return experiments.Fig15(e, cfg)
			}},
		{"future",
			func(e *experiments.Env) (*experiments.Table, error) { return experiments.TableFuture() },
			func(e *experiments.Env) (*experiments.Table, error) { return experiments.TableFuture() }},
		{"reverse",
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.AblationReverse(e, experiments.ReverseQuick())
			},
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.AblationReverse(e, experiments.ReverseFull())
			}},
		{"coded",
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Coded(e, experiments.CodedQuick())
			},
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.Coded(e, experiments.CodedFull())
			}},
		{"sa",
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.SAComparison(e, experiments.SAQuick())
			},
			func(e *experiments.Env) (*experiments.Table, error) {
				return experiments.SAComparison(e, experiments.SAFull())
			}},
	}
}

func main() {
	var (
		exp    = flag.String("exp", "", "comma-separated experiment IDs, or 'all'")
		quick  = flag.Bool("quick", false, "run at bench scale instead of full scale")
		csvDir = flag.String("csv", "", "directory to also write <exp>.csv files into")
		trace  = flag.String("trace", "", "QMTR trace file for fig15 (default: synthesize)")
		list   = flag.Bool("list", false, "list experiment IDs and exit")
		top    = flag.String("top", "", "poll a serving data center's live stats (fronthaul address) and exit")
		watch  = flag.Duration("watch", 0, "with -top, redraw the stats table every interval")
	)
	flag.Parse()

	if topMain(*top, *watch) {
		return
	}

	all := runners(*trace)
	if *list {
		for _, r := range all {
			fmt.Println(r.name)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: quamax -exp <id>[,<id>...] | -exp all [-quick] [-csv dir]")
		fmt.Fprintln(os.Stderr, "experiments:", names(all))
		os.Exit(2)
	}

	wanted := map[string]bool{}
	if *exp == "all" {
		for _, r := range all {
			wanted[r.name] = true
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			wanted[strings.TrimSpace(id)] = true
		}
	}
	for id := range wanted {
		if !contains(all, id) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, names(all))
			os.Exit(2)
		}
	}

	env := experiments.NewEnv()
	for _, r := range all {
		if !wanted[r.name] {
			continue
		}
		start := time.Now()
		run := r.full
		if *quick {
			run = r.quick
		}
		tab, err := run(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Println(tab.String())
		fmt.Printf("(%s completed in %v)\n\n", r.name, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, r.name+".csv")
			if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
				os.Exit(1)
			}
		}
	}
}

func names(rs []runner) string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.name
	}
	return strings.Join(out, " ")
}

func contains(rs []runner, name string) bool {
	for _, r := range rs {
		if r.name == name {
			return true
		}
	}
	return false
}
