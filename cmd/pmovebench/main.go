// Command pmovebench is the repository's benchmark (see BENCHMARK.json
// and internal/bench/README.md).
//
//	go run ./cmd/pmovebench -seed 1 -out report.json
//
// runs every workload untraced, then each one's traced pass, then the
// layer probes, checks that outputs are correct, prints every metric by
// name with its unit and exits non-zero if anything came back wrong.
//
//	go run ./cmd/pmovebench -workload bulk_ingest -seed 7 -seconds 20 -trace 0
//
// runs one workload one way and prints, as the last line, the one-object
// summary BENCHMARK.json's contract asks for ({"correct", "attempted",
// "failed", "metrics"}): with -trace 0 the manifest's end_to_end metrics,
// with -trace 1 (the workload's traced pass and the layer probes) its
// per_layer metrics, 0 where the workload has no such quantity.
//
//	go run ./cmd/pmovebench -compare base.json new.json
//
// holds the second report against the first, workload by workload and
// end-to-end metric by end-to-end metric, and exits non-zero on a
// regression.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"pmove/internal/bench"
)

// manifestPath is BENCHMARK.json, relative to the repository root the
// command runs from.
const manifestPath = "BENCHMARK.json"

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "run one workload (default: all of "+fmt.Sprint(bench.Workloads)+")")
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", -1, "measuring time per workload run; 0 = one round (default: run_seconds of BENCHMARK.json)")
	scale := flag.Float64("scale", 1, "multiply every round's operation counts")
	trace := flag.String("trace", "", "0: untraced runs only (end-to-end metrics); 1: traced passes and layer probes only (per-layer metrics); default both")
	runs := flag.Int("runs", 1, "untraced runs per workload, each with the next seed (for -compare's spread)")
	dir := flag.String("dir", ".pmovebench", "parent of the data directories (made with os.MkdirTemp, removed on exit)")
	out := flag.String("out", "", "write the report (env and every run) to this JSON file")
	traceOut := flag.String("trace-out", "", "write the last traced pass as Chrome trace-event JSON to this file")
	compare := flag.Bool("compare", false, "compare two reports: -compare base.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two report files"))
		}
		a, err := bench.LoadReport(flag.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := bench.LoadReport(flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if bench.Compare(os.Stdout, a, b) {
			return 1
		}
		return 0
	}

	if *trace != "" && *trace != "0" && *trace != "1" {
		return fail(fmt.Errorf("-trace takes 0 or 1, not %q", *trace))
	}
	man, err := bench.LoadManifest(manifestPath)
	if err != nil {
		return fail(err)
	}
	opts := bench.Options{Seed: *seed, Seconds: *seconds, Scale: *scale, Dir: *dir}
	if *seconds < 0 {
		opts.Seconds = float64(man.RunSeconds)
	}
	names := bench.Workloads
	if *workload != "" {
		names = []string{*workload}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return fail(err)
	}
	report := &bench.Report{Env: bench.NewEnv(*seed, *dir)}
	fmt.Printf("env: %+v\n", report.Env)
	add := func(res *bench.Result, err error) error {
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		report.Runs = append(report.Runs, res)
		return nil
	}
	if *trace != "1" {
		for _, name := range names {
			for r := 0; r < *runs; r++ {
				o := opts
				o.Seed = *seed + uint64(r)
				if err := add(bench.Run(ctx, name, o)); err != nil {
					return fail(err)
				}
			}
		}
	}
	if *trace != "0" {
		for _, name := range names {
			if err := add(bench.RunTraced(ctx, name, opts)); err != nil {
				return fail(err)
			}
		}
		if *traceOut != "" {
			last := report.Runs[len(report.Runs)-1]
			if err := os.WriteFile(*traceOut, last.ChromeTrace(), 0o644); err != nil {
				return fail(err)
			}
		}
		// The probes do not depend on the workload: once a command.
		if err := add(bench.Probes(ctx, opts)); err != nil {
			return fail(err)
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(report, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}

	// The summary line. A single workload run one way fills in the
	// metrics: exactly the manifest's list for that way, so that every
	// workload answers to every name.
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	measured := map[string]bench.Metric{}
	for _, r := range report.Runs {
		summary.Correct = summary.Correct && r.Correct
		summary.Attempted += r.Attempted
		summary.Failed += r.Failed
		for name, m := range r.Metrics {
			measured[name] = m
		}
	}
	if *workload != "" && *trace != "" && *runs == 1 {
		specs := man.EndToEnd
		if *trace == "1" {
			specs = man.PerLayer
		}
		for _, s := range specs {
			summary.Metrics[s.Name] = metric{measured[s.Name].Value, s.Unit}
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !summary.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "pmovebench:", err)
	return 1
}
