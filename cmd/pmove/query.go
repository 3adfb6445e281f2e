package main

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"pmove"
	"pmove/internal/abst"
	"pmove/internal/topo"
)

// cmdQuery runs aggregate SELECTs against the embedded time-series
// store: it samples one observation (Scenario B, so the store holds
// real telemetry), then either executes -stmt verbatim or generates
// one aggregate summary query per observed measurement (-agg over
// every field, optionally windowed with -window). The run prints each
// canonical statement, its rows, and the query-cache counters the
// engine recorded (pmove.self.query.cache.*).
func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	host := fs.String("host", "csl", "target preset (skx|icl|csl|zen3)")
	kernel := fs.String("kernel", "triad", "likwid kernel sampled to populate the store")
	threads := fs.Int("threads", 8, "software threads")
	freq := fs.Float64("freq", 32, "sampling frequency in Hz")
	stmt := fs.String("stmt", "", "SELECT statement to run verbatim (default: generated aggregate summaries)")
	agg := fs.String("agg", "mean", "aggregate for generated queries: mean|min|max|sum|count|pNN")
	window := fs.String("window", "", "GROUP BY time window for generated queries, e.g. 250ms")
	workers := fs.Int("workers", 0, "parallel scan workers (0 = auto)")
	nocache := fs.Bool("nocache", false, "bypass the query-result cache")
	repeat := fs.Int("repeat", 2, "times to run each statement (shows cache hits)")
	fs.Parse(args)

	d, sys, err := daemonWith(*host, 1, pmove.DefaultPipeline(), pmove.WithIntrospection())
	if err != nil {
		return err
	}
	spec, err := pmove.LikwidKernel(*kernel, sys.CPU.WidestISA(), 8<<20, 500)
	if err != nil {
		return err
	}
	res, err := d.ObserveContext(context.Background(), pmove.ObserveRequest{
		Host: *host, Workload: spec,
		Command: "likwid-bench -t " + *kernel,
		Threads: *threads, Pin: topo.PinStrategy("balanced"),
		GenericEvents: []string{abst.GenericTotalMemOps, abst.GenericInstructions, abst.GenericCycles},
		FreqHz:        *freq,
	})
	if err != nil {
		return err
	}

	var stmts []string
	if *stmt != "" {
		stmts = []string{*stmt}
	} else {
		for _, m := range res.Observation.Metrics {
			cols := make([]string, 0, len(m.Fields))
			for _, f := range m.Fields {
				cols = append(cols, fmt.Sprintf("%s(%q)", *agg, f))
			}
			s := fmt.Sprintf("SELECT %s FROM %q WHERE tag=%q",
				strings.Join(cols, ", "), m.Measurement, res.Observation.Tag)
			if *window != "" {
				s += fmt.Sprintf(" GROUP BY time(%s)", *window)
			}
			stmts = append(stmts, s)
		}
	}

	ctx := context.Background()
	for _, s := range stmts {
		q, err := pmove.ParseQuery(s)
		if err != nil {
			return err
		}
		fmt.Println(q.String())
		var r *pmove.QueryResult
		for i := 0; i < *repeat || i == 0; i++ {
			r, err = d.TS.ExecuteContext(ctx, pmove.QueryRequest{
				Query: q, Workers: *workers, SkipCache: *nocache,
			})
			if err != nil {
				return err
			}
		}
		for _, row := range r.Rows {
			fmt.Printf("  t=%-16d", row.Time)
			for _, c := range r.Columns {
				if v, ok := row.Values[c]; ok {
					fmt.Printf(" %s=%.6g", c, v)
				}
			}
			fmt.Println()
		}
		if len(r.Rows) == 0 {
			fmt.Println("  (no rows)")
		}
	}

	fmt.Println("\nquery engine self-metrics (exported as pmove.self.*):")
	snap := d.SelfSnapshot()
	for _, m := range snap.Metrics {
		if strings.HasPrefix(m.Name, "query.cache.") {
			fmt.Printf("  %-28s %.0f\n", m.Name, m.Value)
		}
	}
	return nil
}
