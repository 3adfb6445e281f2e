// Package core implements the P-MoVE daemon: the orchestrator that reads
// its environment (Figure 3 step ⓪), probes targets and generates their
// Knowledge Bases (①–③), configures samplers and dashboards from the KB,
// and runs the two operating scenarios — system monitoring (Scenario A)
// and kernel observation with PMU sampling (Scenario B) — plus benchmark
// execution and live-CARM analysis.
//
// The daemon is host-side: "P-MoVE is designed to run on a host that can
// be different than the target system. The host runs the P-MoVE daemon as
// well as the tools with heavy workloads, e.g., InfluxDB, MongoDB, and
// Grafana. The target only runs the PCP samplers."
package core

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"pmove/internal/abst"
	"pmove/internal/dashboard"
	"pmove/internal/docdb"
	"pmove/internal/introspect"
	"pmove/internal/introspect/expose"
	"pmove/internal/introspect/logbuf"
	"pmove/internal/kb"
	"pmove/internal/machine"
	"pmove/internal/pmu"
	"pmove/internal/telemetry"
	"pmove/internal/topo"
	"pmove/internal/tsdb"
)

// Env is the daemon's environment configuration (step ⓪ reads "the IP
// addresses of InfluxDB and MongoDB instances and Grafana token").
type Env struct {
	InfluxAddr   string
	MongoAddr    string
	GrafanaToken string
}

// EnvFromOS reads the configuration from the process environment, with
// embedded-instance defaults when unset.
func EnvFromOS() Env {
	get := func(k, def string) string {
		if v := os.Getenv(k); v != "" {
			return v
		}
		return def
	}
	return Env{
		InfluxAddr:   get("PMOVE_INFLUX_ADDR", "embedded"),
		MongoAddr:    get("PMOVE_MONGO_ADDR", "embedded"),
		GrafanaToken: get("PMOVE_GRAFANA_TOKEN", "dev-token"),
	}
}

// Target is one attached system: its execution engine and PCP-like
// sampler stack.
type Target struct {
	System   *topo.System
	Machine  *machine.Machine
	PMCD     *telemetry.PMCD
	Pipeline telemetry.PipelineConfig
}

// Daemon is the P-MoVE host process.
//
// Locking discipline: d.mu guards the daemon's own registries (targets,
// kbs, seq, sink) and is never held across an operation; d.kbMu
// serializes KB entry attachment and persistence, since kb.KB is not
// internally synchronized and concurrent Monitor/Observe sessions all
// mutate their host's KB. Per-target state (Machine, PMCD) is owned by
// whichever session runs on that target — concurrent operations against
// the *same* target share a virtual clock and must be serialized by the
// caller; operations on different targets are safe in parallel.
type Daemon struct {
	Env      Env
	Docs     *docdb.DB
	TS       *tsdb.DB
	Registry *abst.Registry
	Gen      *dashboard.Generator
	// Introspection is the self-observability layer; nil when disabled
	// (every instrumented path is nil-safe and near-free then).
	Introspection *introspect.Introspector
	// Logs is the daemon's bounded structured log ring, non-nil once
	// WithLogBuffer or WithExpose enables it. Components append through
	// component children (Logs.With); every logbuf method is nil-safe,
	// so disabled logging costs nothing.
	Logs *logbuf.Logger

	mu      sync.Mutex
	targets map[string]*Target
	kbs     map[string]*kb.KB
	seq     uint64
	sink    telemetry.PointSink

	// dataDir/fsync back the embedded databases with WAL+snapshot data
	// directories when set (WithDataDir); both stay "" for the default
	// zero-config in-memory mode.
	dataDir string
	fsync   string

	// exposeAddr/logCap hold the WithExpose / WithLogBuffer requests
	// until NewWith materializes them; exposeSrv and stopSampler are the
	// running observability plane, released by Close.
	exposeAddr  string
	logCap      int
	exposeSrv   *expose.Server
	stopSampler func()

	// kbMu serializes Attach+Persist on the per-host KBs.
	kbMu sync.Mutex
}

// SetTelemetrySink redirects all subsequent monitoring/observation
// telemetry to sink instead of the embedded TS store — typically a
// resilient tsdb.Client pointed at a remote host (Figure 3's "the host
// runs ... InfluxDB"). Passing nil restores the embedded store. A
// resilient remote sink reports its retries, failures and
// breaker transitions into the transport.tsdb.* self metrics and the
// structured log ring.
func (d *Daemon) SetTelemetrySink(sink telemetry.PointSink) {
	d.mu.Lock()
	d.sink = sink
	d.mu.Unlock()
	tc, ok := sink.(*tsdb.Client)
	if !ok {
		return
	}
	if d.Introspection != nil {
		tc.SetIntrospection(d.Introspection, "tsdb")
	}
	tc.SetLogger(d.Logs.With("transport.tsdb"))
}

// openCollector builds the collector for one session, honoring the
// configured remote sink and the daemon's introspection layer, and opens
// the target's opt-in durable spill journal (Pipeline.JournalDir):
// backlog from a crashed predecessor is reloaded and replayed ahead of
// fresh data. The caller closes the journal when the session ends, which
// compacts it down to the backlog still unshipped. The sink is read
// under d.mu so a concurrent SetTelemetrySink on a hot attach path is
// always observed whole; the collector keeps its own immutable copy
// afterwards.
func (d *Daemon) openCollector(t *Target) (*telemetry.Collector, error) {
	c := telemetry.NewCollector(d.TS, t.Pipeline)
	d.mu.Lock()
	c.Sink = d.sink
	d.mu.Unlock()
	c.Self = d.Introspection
	c.Log = d.Logs.With("telemetry")
	if _, err := c.OpenJournal(); err != nil {
		return nil, err
	}
	return c, nil
}

// AttachTarget registers a target system with the daemon, building its
// execution engine and sampler stack.
func (d *Daemon) AttachTarget(sys *topo.System, mcfg machine.Config, pipe telemetry.PipelineConfig) (*Target, error) {
	m, err := machine.New(sys, mcfg)
	if err != nil {
		return nil, err
	}
	t := &Target{System: sys, Machine: m, PMCD: telemetry.NewPMCD(m), Pipeline: pipe}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.targets[sys.Hostname]; dup {
		return nil, fmt.Errorf("core: target %q already attached", sys.Hostname)
	}
	d.targets[sys.Hostname] = t
	return t, nil
}

// Target returns an attached target.
func (d *Daemon) Target(host string) (*Target, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.targets[host]
	if !ok {
		return nil, fmt.Errorf("core: no target %q attached", host)
	}
	return t, nil
}

// Hosts lists attached targets, sorted.
func (d *Daemon) Hosts() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for h := range d.targets {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// ProbeContext runs Figure 3 steps ①–③ for a target: the probing module
// runs on the target, the probe document comes back to the host, the KB
// is generated from it and inserted into the document database, where
// it adopts the entries earlier runs stored for the host.
func (d *Daemon) ProbeContext(ctx context.Context, host string) (_ *kb.KB, err error) {
	ctx, done := d.opStart(ctx, "probe")
	defer func() { done(err) }()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: probe %s: %w", host, err)
	}
	t, err := d.Target(host)
	if err != nil {
		return nil, err
	}
	prober := topo.NewProber()
	prober.EventLister = func(microarch string) []string {
		cat, err := pmu.CatalogFor(microarch)
		if err != nil {
			return nil
		}
		return cat.Names()
	}
	prober.MetricLister = func(*topo.System) []string { return t.PMCD.Metrics() }
	doc, err := prober.Probe(t.System)
	if err != nil {
		return nil, err
	}
	k, err := kb.Generate(doc, kb.Config{
		InfluxAddr:   d.Env.InfluxAddr,
		MongoAddr:    d.Env.MongoAddr,
		GrafanaToken: d.Env.GrafanaToken,
	})
	if err != nil {
		return nil, err
	}
	d.kbMu.Lock()
	err = k.Persist(d.Docs)
	d.kbMu.Unlock()
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.kbs[host] = k
	d.mu.Unlock()
	return k, nil
}

// KB returns the generated knowledge base for a host.
func (d *Daemon) KB(host string) (*kb.KB, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	k, ok := d.kbs[host]
	if !ok {
		return nil, fmt.Errorf("core: host %q not probed yet", host)
	}
	return k, nil
}

// attachAndPersist attaches entries to a host's KB and stores them
// ("Step ③ re-occurs every time KB changes"): Persist writes one record
// per new entry. Serialized under d.kbMu: kb.KB has no internal
// locking, and concurrent sessions on the same host otherwise race on
// the entry list.
func (d *Daemon) attachAndPersist(k *kb.KB, entries ...kb.Entry) error {
	d.kbMu.Lock()
	defer d.kbMu.Unlock()
	for _, e := range entries {
		if err := k.Attach(e); err != nil {
			return err
		}
	}
	return k.Persist(d.Docs)
}

// nextTag allocates an observation tag: kb.NewUUID(k.Host, seq) for the
// next seq whose tag no entry of k carries (an entry id is
// "<kind>:<tag>"). A fresh daemon issues seq 1, 2, …; one restarted on
// its data directory skips the tags its probe adopted.
func (d *Daemon) nextTag(k *kb.KB) string {
	used := map[string]bool{}
	d.kbMu.Lock()
	for _, e := range k.Entries {
		_, tag, _ := strings.Cut(e.EntryID(), ":")
		used[tag] = true
	}
	d.kbMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		d.seq++
		if tag := kb.NewUUID(k.Host, d.seq); !used[tag] {
			return tag
		}
	}
}

// MonitorRequest configures a Scenario A run, mirroring ObserveRequest so
// the public surface evolves by adding fields instead of parameters.
type MonitorRequest struct {
	// Host is the attached target to monitor.
	Host string
	// Metrics are the software metrics to sample; empty selects the KB's
	// default SWTelemetry set.
	Metrics []string
	// FreqHz is the sampling frequency.
	FreqHz float64
	// DurationSeconds bounds the session (virtual seconds).
	DurationSeconds float64
}

// MonitorResult is the outcome of a Scenario A run.
type MonitorResult struct {
	Observation *kb.Observation
	Stats       telemetry.SessionStats
	Dashboard   *dashboard.Dashboard
}

// MonitorContext runs Scenario A: sampling software-emitted metrics to
// monitor system state. The KB supplies the sampler configuration;
// dashboards are generated before the target starts reporting ("the
// dashboards are already generated on the host when the target starts
// reporting"). Cancelling ctx stops the session at the next tick and
// returns the context's error wrapped.
func (d *Daemon) MonitorContext(ctx context.Context, req MonitorRequest) (_ *MonitorResult, err error) {
	ctx, done := d.opStart(ctx, "monitor")
	defer func() { done(err) }()
	host, metrics := req.Host, req.Metrics
	freqHz, durationSeconds := req.FreqHz, req.DurationSeconds
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: monitor %s: %w", host, err)
	}
	t, err := d.Target(host)
	if err != nil {
		return nil, err
	}
	k, err := d.KB(host)
	if err != nil {
		return nil, err
	}
	if len(metrics) == 0 {
		// Default SWTelemetry set from the KB: every software telemetry
		// definition on any component.
		seen := map[string]bool{}
		for _, n := range k.Nodes() {
			for _, tel := range n.Interface.Telemetries("SWTelemetry") {
				if t2, ok := t.PMCD.Agent(telemetry.AgentLinux); ok {
					for _, m := range t2.Metrics() {
						if m == tel.SamplerName && !seen[m] {
							seen[m] = true
							metrics = append(metrics, m)
						}
					}
				}
			}
		}
		sort.Strings(metrics)
	}
	tag := d.nextTag(k)

	// A1/A2: configure the sampler and generate the dashboard in parallel
	// conceptually; here sequentially but before sampling starts.
	obs := &kb.Observation{
		ID:         "obs:" + tag,
		Type:       "ObservationInterface",
		Tag:        tag,
		Host:       host,
		Command:    "monitor",
		FreqHz:     freqHz,
		StartNanos: int64(t.Machine.Now() * 1e9),
	}
	for _, m := range metrics {
		obs.Metrics = append(obs.Metrics, kb.MetricRef{
			Measurement: tsdb.MeasurementName(m),
			Fields:      d.fieldsForMetric(t, m),
		})
	}
	dash, err := d.Gen.ForObservation(obs)
	if err != nil {
		return nil, err
	}

	collector, err := d.openCollector(t)
	if err != nil {
		return nil, err
	}
	defer collector.CloseJournal()
	sess, err := telemetry.NewSession(t.PMCD, collector, telemetry.SessionConfig{
		Metrics: metrics, FreqHz: freqHz, Tag: tag, DurationSeconds: durationSeconds,
	})
	if err != nil {
		return nil, err
	}
	stats, err := sess.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	obs.EndNanos = int64(t.Machine.Now() * 1e9)
	obs.Report = fmt.Sprintf("monitored %d metrics at %g Hz for %gs: %d inserted, %.1f%% lost",
		len(metrics), freqHz, durationSeconds, stats.Inserted, stats.LossPct)
	if stats.Spilled > 0 {
		obs.Report += fmt.Sprintf(" (degraded: %d spilled, %d replayed, %d evicted, %d pending)",
			stats.Spilled, stats.Replayed, stats.SpillDropped, stats.Pending)
	}
	if err := d.attachAndPersist(k, obs); err != nil {
		return nil, err
	}
	return &MonitorResult{Observation: obs, Stats: stats, Dashboard: dash}, nil
}

// fieldsForMetric resolves the instance fields a metric reports on a
// target (the query parameters "already encoded in KB").
func (d *Daemon) fieldsForMetric(t *Target, metric string) []string {
	s, err := t.PMCD.Sample(metric)
	if err != nil {
		return nil
	}
	var fields []string
	for f := range s.Values {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	return fields
}
