// Quickstart: probe a simulated Skylake-X server, generate its Knowledge
// Base, inspect the component tree through the three views, monitor the
// system for a few (virtual) seconds, and print an auto-generated
// dashboard — the minimal end-to-end tour of P-MoVE's pipeline
// (Figure 3, steps ⓪-③ plus Scenario A).
package main

import (
	"context"
	"fmt"
	"log"

	"pmove"
)

func main() {
	ctx := context.Background()
	// Step ⓪: the daemon reads its environment (database addresses,
	// Grafana token); unset variables select embedded instances.
	d, err := pmove.NewDaemonWith(pmove.WithEnv(pmove.EnvFromOS()))
	if err != nil {
		log.Fatal(err)
	}

	// Attach the target system. On a real deployment this is a remote
	// machine running the PCP samplers; here it is the simulated skx
	// server of Table II.
	sys := pmove.MustPreset(pmove.PresetSKX)
	if _, err := d.AttachTarget(sys, pmove.MachineConfig{Seed: 42}, pmove.DefaultPipeline()); err != nil {
		log.Fatal(err)
	}

	// Steps ①-③: probe the target, generate the KB, insert into the
	// document store.
	kb, err := d.ProbeContext(ctx, sys.Hostname)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("knowledge base for %s: %d component twins\n", kb.Host, kb.Len())
	fmt.Printf("root twin: %s\n\n", kb.Root().ID)

	// The three views of §III-B.
	threads := kb.NodesOfKind(pmove.KindThread)
	focus, err := kb.FocusView(threads[0].ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", focus.Title)
	for _, n := range focus.Nodes {
		fmt.Printf("  %-10s %s\n", n.Kind, n.ID)
	}

	level, err := kb.LevelView(pmove.KindSocket)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\n", level.Title)

	sub, err := kb.SubtreeView(kb.NodesOfKind(pmove.KindCore)[0].ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d components\n\n", sub.Title, len(sub.Nodes))

	// Scenario A: monitor system state for 10 virtual seconds at 2 Hz.
	res, err := d.MonitorContext(ctx, pmove.MonitorRequest{Host: sys.Hostname, FreqHz: 2, DurationSeconds: 10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("monitored: %s\n", res.Observation.Report)
	fmt.Printf("observation tag: %s\n", res.Observation.Tag)
	fmt.Println("auto-generated queries (Listing 3 style):")
	for i, q := range res.Observation.Queries() {
		if i == 3 {
			fmt.Printf("  ... and %d more\n", len(res.Observation.Queries())-3)
			break
		}
		fmt.Printf("  %s\n", q)
	}

	// Render the dashboard (the terminal stand-in for Grafana).
	fmt.Println()
	out, err := pmove.RenderDashboard(d.TS, res.Dashboard, 64)
	if err != nil {
		log.Fatal(err)
	}
	// Print only the first panels to keep the tour short.
	lines := 0
	for _, line := range splitLines(out) {
		fmt.Println(line)
		lines++
		if lines > 14 {
			fmt.Println("  ...")
			break
		}
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
