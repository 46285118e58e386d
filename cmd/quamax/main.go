// Command quamax regenerates the paper's tables and figures at full scale.
//
// Usage:
//
//	quamax -exp table1              # one experiment
//	quamax -exp fig5,fig6 -quick    # several, at bench scale
//	quamax -exp all -csv out/       # everything, also writing CSV files
//	quamax -list                    # every experiment ID and its paper artifact
//
// The experiments are internal/experiments' Registry; -list and the usage
// text print it, so no ID is enumerated here.
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

func main() {
	var (
		exp    = flag.String("exp", "", "comma-separated experiment IDs, or 'all'")
		quick  = flag.Bool("quick", false, "run at bench scale instead of full scale")
		csvDir = flag.String("csv", "", "directory to also write <exp>.csv files into")
		trace  = flag.String("trace", "", "QMTR trace file for fig15 (default: synthesize)")
		list   = flag.Bool("list", false, "list experiment IDs with their paper artifacts and exit")
		top    = flag.String("top", "", "poll a serving data center's live stats (fronthaul address) and exit")
		watch  = flag.Duration("watch", 0, "with -top, redraw the stats table every interval")
	)
	flag.Parse()

	if topMain(*top, *watch) {
		return
	}

	if *list {
		for _, x := range experiments.Registry {
			fmt.Printf("%-8s %s\n", x.ID, x.Artifact)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: quamax -exp <id>[,<id>...] | -exp all [-quick] [-csv dir]")
		fmt.Fprintln(os.Stderr, "experiments:", ids())
		os.Exit(2)
	}
	selected, unknown := selectExperiments(*exp)
	if len(unknown) > 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment(s) %s; known: %s\n", strings.Join(unknown, " "), ids())
		os.Exit(2)
	}

	env := experiments.NewEnv()
	env.TracePath = *trace
	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}
	for _, x := range selected {
		start := time.Now()
		tab, err := x.Run(env, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", x.ID, err)
			os.Exit(1)
		}
		fmt.Println(tab.String())
		fmt.Printf("(%s completed in %v)\n\n", x.ID, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, x.ID+".csv")
			if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
				os.Exit(1)
			}
		}
	}
}

// selectExperiments resolves an -exp value ("all" or comma-separated IDs) to
// the registered experiments it names, in registry order, and every ID it
// names that is not registered, in the order given.
func selectExperiments(exp string) (selected []experiments.Experiment, unknown []string) {
	if exp == "all" {
		return experiments.Registry, nil
	}
	known := map[string]bool{}
	for _, x := range experiments.Registry {
		known[x.ID] = true
	}
	wanted := map[string]bool{}
	for _, id := range strings.Split(exp, ",") {
		id = strings.TrimSpace(id)
		if !known[id] && !wanted[id] {
			unknown = append(unknown, fmt.Sprintf("%q", id))
		}
		wanted[id] = true
	}
	for _, x := range experiments.Registry {
		if wanted[x.ID] {
			selected = append(selected, x)
		}
	}
	return selected, unknown
}

// ids lists the registered experiment IDs, space separated.
func ids() string {
	out := make([]string, len(experiments.Registry))
	for i, x := range experiments.Registry {
		out[i] = x.ID
	}
	return strings.Join(out, " ")
}
