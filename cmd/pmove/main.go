// Command pmove is the P-MoVE daemon CLI. It drives the framework against
// a simulated target system:
//
//	pmove probe   -host skx                          probe and print the KB summary
//	pmove views   -host skx -kind thread             print a KB view
//	pmove monitor -host icl -freq 4 -duration 30     Scenario A monitoring
//	pmove observe -host csl -kernel triad -threads 8 Scenario B observation
//	pmove carm    -host csl -threads 8               construct and print the CARM
//	pmove bench   -host csl -name stream -threads 8  run a BenchmarkInterface
//	pmove abst    -arch zen3 -event TOTAL_MEMORY_OPERATIONS
//	pmove introspect -host icl -duration 5           run a monitored op and dump P-MoVE's own telemetry
//	pmove trace -host icl -chrome trace.json         distributed-trace a monitored op across daemon + tsdb server
//	pmove monitor -host icl -expose :9100 -hold 30s  monitor with the live observability plane up for scrapers
//	pmove logs -addr 127.0.0.1:9100 -level warn      dump/filter a running daemon's structured log ring
//
// All state is embedded; `monitor -influx` ships the run's telemetry to an
// external tsdb server started with cmd/superdb. `monitor -self-monitor` enables the
// self-observability layer for a regular run: the daemon's own counters
// land in the pmove.self.* series next to the target's telemetry.
// `monitor -expose` additionally serves /metrics (OpenMetrics), /healthz,
// /readyz, /debug/vars and /logs over HTTP for the run's duration.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pmove"
	"pmove/internal/abst"
	"pmove/internal/kernels"
	"pmove/internal/ontology"
	"pmove/internal/resilience"
	"pmove/internal/topo"
	"pmove/internal/tsdb"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pmove <probe|views|monitor|observe|carm|bench|abst|whatif|scan|cluster|introspect|trace|logs|query> [flags]")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "probe":
		err = cmdProbe(args)
	case "views":
		err = cmdViews(args)
	case "monitor":
		err = cmdMonitor(args)
	case "observe":
		err = cmdObserve(args)
	case "carm":
		err = cmdCARM(args)
	case "bench":
		err = cmdBench(args)
	case "abst":
		err = cmdAbst(args)
	case "whatif":
		err = cmdWhatIf(args)
	case "scan":
		err = cmdScan(args)
	case "cluster":
		err = cmdCluster(args)
	case "introspect":
		err = cmdIntrospect(args)
	case "trace":
		err = cmdTrace(args)
	case "logs":
		err = cmdLogs(args)
	case "query":
		err = cmdQuery(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmove %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

// daemonFor builds a daemon with one attached, probed target.
func daemonFor(host string, seed uint64) (*pmove.Daemon, *pmove.System, error) {
	return daemonWith(host, seed, pmove.DefaultPipeline())
}

// daemonWith is daemonFor with an explicit pipeline configuration plus any
// construction options (e.g. pmove.WithIntrospection()).
func daemonWith(host string, seed uint64, pipe pmove.PipelineConfig, opts ...pmove.DaemonOption) (*pmove.Daemon, *pmove.System, error) {
	d, err := pmove.NewDaemonWith(append([]pmove.DaemonOption{pmove.WithEnv(pmove.EnvFromOS())}, opts...)...)
	if err != nil {
		return nil, nil, err
	}
	sys, err := pmove.NewPreset(host)
	if err != nil {
		return nil, nil, err
	}
	if _, err := d.AttachTarget(sys, pmove.MachineConfig{Seed: seed}, pipe); err != nil {
		return nil, nil, err
	}
	if _, err := d.ProbeContext(context.Background(), host); err != nil {
		return nil, nil, err
	}
	return d, sys, nil
}

func cmdProbe(args []string) error {
	fs := flag.NewFlagSet("probe", flag.ExitOnError)
	host := fs.String("host", "skx", "target preset (skx|icl|csl|zen3)")
	gpu := fs.Bool("gpu", false, "attach a GPU to the target")
	fs.Parse(args)
	d, err := pmove.NewDaemonWith(pmove.WithEnv(pmove.EnvFromOS()))
	if err != nil {
		return err
	}
	sys, err := pmove.NewPreset(*host)
	if err != nil {
		return err
	}
	if *gpu {
		sys = pmove.WithGPU(sys)
	}
	if _, err := d.AttachTarget(sys, pmove.MachineConfig{Seed: 1}, pmove.DefaultPipeline()); err != nil {
		return err
	}
	kb, err := d.ProbeContext(context.Background(), *host)
	if err != nil {
		return err
	}
	fmt.Printf("host %s: %d component twins, root %s\n", kb.Host, kb.Len(), kb.Root().ID)
	for _, kind := range ontology.Kinds() {
		nodes := kb.NodesOfKind(kind)
		if len(nodes) > 0 {
			fmt.Printf("  %-8s %4d\n", kind, len(nodes))
		}
	}
	st, err := kb.TripleStore()
	if err != nil {
		return err
	}
	fmt.Printf("linked data: %d RDF triples\n", st.Len())
	return nil
}

func cmdViews(args []string) error {
	fs := flag.NewFlagSet("views", flag.ExitOnError)
	host := fs.String("host", "skx", "target preset")
	kind := fs.String("kind", "socket", "component kind for the level view")
	fs.Parse(args)
	d, _, err := daemonFor(*host, 1)
	if err != nil {
		return err
	}
	kb, err := d.KB(*host)
	if err != nil {
		return err
	}
	v, err := kb.LevelView(pmove.ComponentKind(*kind))
	if err != nil {
		return err
	}
	fmt.Println(v.Title)
	for _, n := range v.Nodes {
		fmt.Printf("  %-40s %s\n", n.ID, n.Interface.DisplayName)
	}
	dash, err := d.Gen.FromView(v)
	if err != nil {
		return err
	}
	b, err := dash.Encode()
	if err != nil {
		return err
	}
	fmt.Printf("\ndashboard JSON (%d panels, %d bytes)\n", len(dash.Panels), len(b))
	return nil
}

func cmdMonitor(args []string) error {
	def := resilience.DefaultPolicy()
	fs := flag.NewFlagSet("monitor", flag.ExitOnError)
	host := fs.String("host", "icl", "target preset")
	freq := fs.Float64("freq", 2, "sampling frequency in Hz")
	duration := fs.Float64("duration", 10, "virtual seconds to monitor")
	influx := fs.String("influx", "", "remote tsdb address (host:port, see cmd/superdb); ships telemetry over the resilient client instead of the embedded store")
	degraded := fs.Bool("degraded", false, "journal telemetry locally across sink outages and replay on reconnect")
	journalCap := fs.Int("journal-cap", 0, "degraded-mode spill journal bound in points (0 = default)")
	dataDir := fs.String("data-dir", "", "back the embedded databases (and, with -degraded, the spill journal) with WAL+snapshot directories under this path; state survives a crash and is recovered on the next run")
	fsync := fs.String("fsync", "always", "WAL fsync policy for -data-dir: always|interval|never")
	dialTimeout := fs.Duration("dial-timeout", def.DialTimeout, "remote sink connect timeout")
	opTimeout := fs.Duration("op-timeout", def.ReadTimeout, "remote sink per-operation read/write deadline")
	retries := fs.Int("retries", def.MaxRetries, "remote sink retry attempts per operation")
	selfMon := fs.Bool("self-monitor", false, "enable the self-observability layer: export P-MoVE's own counters as pmove.self.* and print them after the run")
	exposeAddr := fs.String("expose", "", "serve the live observability plane on this address (e.g. :9100): /metrics, /healthz, /readyz, /debug/vars, /logs; implies introspection")
	hold := fs.Duration("hold", 0, "keep the daemon (and its -expose plane) up this long after the run, for scrapers")
	fs.Parse(args)

	pipe := pmove.DefaultPipeline()
	pipe.Degraded = *degraded
	pipe.JournalCap = *journalCap
	var opts []pmove.DaemonOption
	if *selfMon {
		opts = append(opts, pmove.WithIntrospection())
	}
	if *exposeAddr != "" {
		opts = append(opts, pmove.WithExpose(*exposeAddr))
	}
	if *dataDir != "" {
		opts = append(opts, pmove.WithDataDir(*dataDir, *fsync))
		if *degraded {
			pipe.JournalDir = filepath.Join(*dataDir, "telemetry")
		}
	}
	d, _, err := daemonWith(*host, 1, pipe, opts...)
	if err != nil {
		return err
	}
	defer d.Close()
	// holdOpen runs after the session: with -expose it announces the
	// plane's bound address, and -hold keeps the process (and so the
	// plane) up for external scrapers before the deferred Close.
	holdOpen := func() {
		if addr := d.ExposeAddr(); addr != "" {
			fmt.Printf("observability plane: http://%s/metrics\n", addr)
		}
		if *hold > 0 {
			time.Sleep(*hold)
		}
	}
	var sink *tsdb.Client
	if *influx != "" {
		pol := def
		pol.DialTimeout = *dialTimeout
		pol.ReadTimeout, pol.WriteTimeout = *opTimeout, *opTimeout
		pol.MaxRetries = *retries
		sink, err = tsdb.DialPolicy(*influx, pol)
		if err != nil {
			return err
		}
		defer sink.Close()
		d.SetTelemetrySink(sink)
	}
	ctx := context.Background()
	res, err := d.MonitorContext(ctx, pmove.MonitorRequest{Host: *host, FreqHz: *freq, DurationSeconds: *duration})
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Printf("%s\n", res.Observation.Report)
	fmt.Printf("expected %d, inserted %d, zeros %d, lost %d (%.1f%% L, %.1f%% L+Z)\n",
		st.Expected, st.Inserted, st.Zeros, st.Lost, st.LossPct, st.LossPlusZPct)
	if st.Spilled > 0 || st.Pending > 0 {
		fmt.Printf("degraded: spilled %d, replayed %d, evicted %d, pending %d\n",
			st.Spilled, st.Replayed, st.SpillDropped, st.Pending)
	}
	if sink != nil {
		// The points live on the remote store; report the transport's view
		// instead of rendering the (empty) embedded dashboard.
		ts := sink.Stats()
		fmt.Printf("transport: %d dials, %d retries, %d failures, %d breaker opens, %d fast-fails\n",
			ts.Dials, ts.Retries, ts.Failures, ts.BreakerOpens, ts.FastFails)
		if *selfMon {
			printSelfMetrics(d)
		}
		holdOpen()
		return nil
	}
	out, err := pmove.RenderDashboard(ctx, d.TS, res.Dashboard, 60)
	if err != nil {
		return err
	}
	fmt.Println(out)
	if *selfMon {
		printSelfMetrics(d)
	}
	holdOpen()
	return nil
}

func cmdObserve(args []string) error {
	fs := flag.NewFlagSet("observe", flag.ExitOnError)
	host := fs.String("host", "csl", "target preset")
	kernel := fs.String("kernel", "triad", "likwid kernel: "+strings.Join(kernels.LikwidKernels(), "|"))
	threads := fs.Int("threads", 8, "software threads")
	pin := fs.String("pin", "balanced", "pinning strategy")
	freq := fs.Float64("freq", 32, "sampling frequency in Hz")
	wss := fs.Int64("wss", 8<<20, "working set bytes per thread")
	sweeps := fs.Int("sweeps", 2000, "working-set sweeps")
	fs.Parse(args)
	d, sys, err := daemonFor(*host, 1)
	if err != nil {
		return err
	}
	spec, err := pmove.LikwidKernel(*kernel, sys.CPU.WidestISA(), *wss, *sweeps)
	if err != nil {
		return err
	}
	generics := []string{abst.GenericTotalMemOps, abst.GenericEnergy, abst.GenericInstructions, abst.GenericCycles}
	res, err := d.ObserveContext(context.Background(), pmove.ObserveRequest{
		Host: *host, Workload: spec,
		Command: "likwid-bench -t " + *kernel,
		Threads: *threads, Pin: topo.PinStrategy(*pin),
		GenericEvents: generics,
		FreqHz:        *freq,
	})
	if err != nil {
		return err
	}
	fmt.Println(res.Observation.Report)
	fmt.Printf("tag %s, affinity %v\n", res.Observation.Tag, res.Observation.Affinity)
	fmt.Println("recall queries:")
	for _, q := range res.Queries {
		if len(q) > 120 {
			q = q[:117] + "..."
		}
		fmt.Printf("  %s\n", q)
	}
	return nil
}

func cmdCARM(args []string) error {
	fs := flag.NewFlagSet("carm", flag.ExitOnError)
	host := fs.String("host", "csl", "target preset")
	threads := fs.Int("threads", 8, "threads")
	fs.Parse(args)
	d, sys, err := daemonFor(*host, 1)
	if err != nil {
		return err
	}
	model, err := d.ConstructCARMContext(context.Background(), *host, sys.CPU.WidestISA(), *threads)
	if err != nil {
		return err
	}
	fmt.Printf("CARM %s %s %d threads: peak %.1f GFLOP/s\n", model.Host, model.ISA, model.Threads, model.PeakGFLOPS)
	for _, lvl := range []pmove.CacheLevel{pmove.L1, pmove.L2, pmove.L3, pmove.DRAM} {
		ridge, err := model.RidgeAI(lvl)
		if err != nil {
			continue
		}
		fmt.Printf("  %-4s %9.1f GB/s (ridge at AI %.3f)\n", lvl, model.MemGBps[lvl], ridge)
	}
	fmt.Print(pmove.RenderCARM(model, nil, 72, 18))
	return nil
}

func cmdBench(args []string) error {
	ctx := context.Background()
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	host := fs.String("host", "csl", "target preset")
	name := fs.String("name", "stream", "benchmark: stream|hpcg")
	threads := fs.Int("threads", 8, "threads")
	fs.Parse(args)
	d, _, err := daemonFor(*host, 1)
	if err != nil {
		return err
	}
	var b *pmove.Benchmark
	switch *name {
	case "stream":
		b, err = d.RunSTREAMContext(ctx, *host, *threads)
	case "hpcg":
		b, err = d.RunHPCGContext(ctx, *host, *threads, 1<<18)
	default:
		return fmt.Errorf("unknown benchmark %q", *name)
	}
	if err != nil {
		return err
	}
	fmt.Printf("BenchmarkInterface %s (%s, compiler %s):\n", b.ID, b.Name, b.Compiler)
	for _, r := range b.Results {
		fmt.Printf("  %-12s %10.2f %-8s %v\n", r.Metric, r.Value, r.Unit, r.Params)
	}
	return nil
}

func cmdAbst(args []string) error {
	fs := flag.NewFlagSet("abst", flag.ExitOnError)
	arch := fs.String("arch", "skl", "pmu name or alias")
	event := fs.String("event", abst.GenericTotalMemOps, "generic event name")
	fs.Parse(args)
	reg, err := pmove.DefaultAbstRegistry()
	if err != nil {
		return err
	}
	toks, err := reg.Get(*arch, *event)
	if err != nil {
		return err
	}
	fmt.Printf("> pmu_utils.get(%q, %q)\n> %q\n", *arch, *event, toks)
	return nil
}
