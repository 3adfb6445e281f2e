package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"pmove"
)

// cmdIntrospect runs a short monitored session with the self-observability
// layer enabled, then dumps everything the layer captured: the metrics
// registry, the span tree, and the auto-generated meta dashboard over the
// daemon's own pmove.self.* series.
func cmdIntrospect(args []string) error {
	fs := flag.NewFlagSet("introspect", flag.ExitOnError)
	host := fs.String("host", "icl", "target preset")
	freq := fs.Float64("freq", 4, "sampling frequency in Hz")
	duration := fs.Float64("duration", 5, "virtual seconds to monitor")
	spans := fs.Bool("spans", true, "print the recorded span tree")
	dashJSON := fs.Bool("dashboard-json", false, "print the meta dashboard JSON instead of a summary")
	jsonOut := fs.Bool("json", false, "dump the registry snapshot as the /debug/vars JSON document instead of the human-readable report")
	fs.Parse(args)

	d, _, err := daemonWith(*host, 1, pmove.DefaultPipeline(), pmove.WithIntrospection())
	if err != nil {
		return err
	}
	res, err := d.MonitorContext(context.Background(), pmove.MonitorRequest{
		Host: *host, FreqHz: *freq, DurationSeconds: *duration,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		// Same encoder the /debug/vars endpoint serves, so tooling can
		// consume either interchangeably.
		return pmove.EncodeSelfVars(os.Stdout, d.SelfSnapshot())
	}
	fmt.Printf("%s\n", res.Observation.Report)

	printSelfMetrics(d)

	if *spans {
		fmt.Println("\nspan tree:")
		printSpanTree(d.SelfSpans())
		if dropped := d.Introspection.Tracer().Dropped(); dropped > 0 {
			fmt.Printf("  (%d older spans evicted from the ring — pmove.self.trace.dropped)\n", dropped)
		}
	}

	dash, err := d.MetaDashboard()
	if err != nil {
		return err
	}
	if *dashJSON {
		b, err := dash.Encode()
		if err != nil {
			return err
		}
		fmt.Printf("\n%s\n", b)
		return nil
	}
	b, err := dash.Encode()
	if err != nil {
		return err
	}
	fmt.Printf("\nmeta dashboard %q: %d panels, %d bytes (re-run with -dashboard-json to print)\n",
		dash.Title, len(dash.Panels), len(b))
	return nil
}

// printSelfMetrics renders the daemon's self-metrics snapshot as a table.
func printSelfMetrics(d *pmove.Daemon) {
	snap := d.SelfSnapshot()
	if len(snap.Metrics) == 0 {
		fmt.Println("self-observability: no metrics recorded")
		return
	}
	fmt.Println("\nself metrics (exported as pmove.self.*):")
	for _, m := range snap.Metrics {
		switch m.Kind {
		case pmove.SelfKindHistogram:
			mean := 0.0
			if m.Count > 0 {
				mean = m.Sum / float64(m.Count)
			}
			fmt.Printf("  %-36s histogram  count %-6d mean %.6fs\n", m.Name, m.Count, mean)
		case pmove.SelfKindGauge:
			fmt.Printf("  %-36s gauge      %g\n", m.Name, m.Value)
		default:
			fmt.Printf("  %-36s counter    %.0f\n", m.Name, m.Value)
		}
	}
}

// printSpanTree renders finished spans as an indented tree, children under
// parents, siblings in start order.
func printSpanTree(spans []pmove.SelfSpan) {
	children := map[uint64][]pmove.SelfSpan{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	}
	var walk func(id uint64, depth int)
	walk = func(id uint64, depth int) {
		for _, s := range children[id] {
			status := "ok"
			if s.Err != "" {
				status = "err: " + s.Err
			}
			dur := s.DurationSeconds()
			if math.IsNaN(dur) || dur < 0 {
				dur = 0
			}
			fmt.Printf("  %s%-28s %.6fs  %s\n", strings.Repeat("  ", depth), s.Name, dur, status)
			walk(s.ID, depth+1)
		}
	}
	walk(0, 0)
}
