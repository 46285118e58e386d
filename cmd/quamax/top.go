package main

import (
	"fmt"
	"os"
	"time"

	"quamax/internal/fronthaul"
	"quamax/internal/metrics"
)

// runTop polls a serving data center's stats frame and renders its sample
// set. interval 0 means one shot; otherwise the tables redraw every interval
// until interrupted.
func runTop(addr string, interval time.Duration) error {
	client, err := fronthaul.Dial(addr)
	if err != nil {
		return err
	}
	defer client.Close()
	for {
		stats, err := client.PoolStats()
		if err != nil {
			return err
		}
		if interval > 0 {
			fmt.Print("\033[H\033[2J") // home + clear between redraws
		}
		metrics.Render(os.Stdout, "quamax pool @ "+addr, stats.Samples)
		if interval <= 0 {
			return nil
		}
		time.Sleep(interval)
	}
}

// topMain dispatches the -top/-watch mode; returns true when it handled the
// invocation (main should exit).
func topMain(addr string, watch time.Duration) bool {
	if addr == "" {
		return false
	}
	if err := runTop(addr, watch); err != nil {
		fmt.Fprintln(os.Stderr, "quamax:", err)
		os.Exit(1)
	}
	return true
}
