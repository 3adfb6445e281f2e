package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"pmove/internal/abst"
	"pmove/internal/dashboard"
	"pmove/internal/docdb"
	"pmove/internal/introspect"
	"pmove/internal/introspect/expose"
	"pmove/internal/introspect/logbuf"
	"pmove/internal/introspect/selfexport"
	"pmove/internal/kb"
	"pmove/internal/resilience"
	"pmove/internal/storage"
	"pmove/internal/tsdb"
)

// Option configures a Daemon at construction — the functional-options
// form of the step-⓪ environment read, so new knobs (telemetry sinks,
// introspection) compose without another positional parameter.
type Option func(*Daemon)

// WithEnv replaces the whole environment configuration.
func WithEnv(env Env) Option {
	return func(d *Daemon) { d.Env = env }
}

// WithDataDir backs the embedded databases with WAL+snapshot data
// directories under dir (tsdb/ and docdb/ subdirectories), replaying
// them on construction so KB documents and telemetry survive a daemon
// crash. fsync selects the durability policy: "always" (ack = durable),
// "interval" (a write fsyncs when 100 ms have passed since the last
// sync; an idle log stays unsynced until the next write or Close) or
// "never"; "" means always. Open/recovery failures
// surface from NewWith. Without this option the daemon keeps its
// zero-config in-memory databases.
func WithDataDir(dir, fsync string) Option {
	return func(d *Daemon) { d.dataDir, d.fsync = dir, fsync }
}

// WithIntrospection enables the self-observability layer: every daemon
// operation is counted, timed and traced, the telemetry pipeline and
// resilience transport report their internals, and after each operation
// the registry is exported into the embedded TSDB under pmove.self.*.
func WithIntrospection(opts ...introspect.Option) Option {
	return func(d *Daemon) {
		// The default process label makes daemon spans distinguishable
		// from server rings in assembled multi-process traces; explicit
		// WithProcess options override it.
		all := append([]introspect.Option{introspect.WithProcess("daemon")}, opts...)
		d.Introspection = introspect.New(all...)
	}
}

// WithExpose serves the live observability plane on addr (":9100",
// "127.0.0.1:0", ...): /metrics (OpenMetrics text over the self
// registry incl. pmove.self.runtime.* gauges), /healthz, /readyz
// (breaker/backlog-aware), /debug/vars and /logs. Implies a structured
// log ring (logbuf.DefaultCapacity records) and auto-enables
// introspection when WithIntrospection was not given — an exposition
// over an empty registry would be useless. The bound address is
// available from Daemon.ExposeAddr; Close stops the server.
func WithExpose(addr string) Option {
	return func(d *Daemon) { d.exposeAddr = addr }
}

// NewWith creates a daemon from functional options. The environment
// defaults to EnvFromOS(); databases are embedded.
func NewWith(opts ...Option) (*Daemon, error) {
	reg, err := abst.DefaultRegistry()
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		Env:      EnvFromOS(),
		Docs:     docdb.New(),
		TS:       tsdb.New(),
		Registry: reg,
		Gen:      dashboard.NewGenerator("UUkm1881"),
		targets:  map[string]*Target{},
		kbs:      map[string]*kb.KB{},
	}
	for _, o := range opts {
		o(d)
	}
	if d.dataDir != "" {
		pol, err := storage.ParseFsyncPolicy(d.fsync)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		ts, err := tsdb.Open(filepath.Join(d.dataDir, "tsdb"), pol)
		if err != nil {
			return nil, fmt.Errorf("core: open tsdb data dir: %w", err)
		}
		docs, err := docdb.Open(filepath.Join(d.dataDir, "docdb"), pol)
		if err != nil {
			ts.Close()
			return nil, fmt.Errorf("core: open docdb data dir: %w", err)
		}
		d.TS, d.Docs = ts, docs
	}
	if d.exposeAddr != "" {
		d.Logs = logbuf.New(0)
		if d.Introspection == nil {
			// Exposition without a registry is an empty page; bring up
			// the default self-observability layer before anything wires
			// to it.
			WithIntrospection()(d)
		}
	}
	if d.Introspection != nil {
		// Embedded store self-observability: query-cache hit/miss/evict
		// counters land in the same registry (pmove.self.query.cache.*).
		// After, not before, the durable branch — Open replaces d.TS.
		d.TS.SetIntrospection(d.Introspection)
	}
	if d.exposeAddr != "" {
		if err := d.startExpose(); err != nil {
			d.TS.Close()
			d.Docs.Close()
			return nil, err
		}
	}
	return d, nil
}

// startExpose stands up the observability-plane HTTP server. Called
// from NewWith once all options have run.
func (d *Daemon) startExpose() error {
	in := d.Introspection
	// Readiness is breaker- and backlog-aware: a daemon whose remote
	// sink circuit is open, or whose spill journal holds unreplayed
	// points, is alive (healthz) but not ready to take on new sessions
	// without degrading them. Both probes read race-safe state: the
	// mutex-guarded sink/breaker and an atomic registry gauge.
	srv := expose.NewServer(in, map[string]string{"process": "daemon"}, d.Logs,
		expose.Check{Name: "telemetry-sink", Probe: func() error {
			d.mu.Lock()
			sink := d.sink
			d.mu.Unlock()
			if tc, ok := sink.(*tsdb.Client); ok {
				if st := tc.BreakerState(); st == resilience.BreakerOpen {
					return fmt.Errorf("sink breaker %s", st)
				}
			}
			return nil
		}},
		expose.Check{Name: "telemetry-backlog", Probe: func() error {
			if n := in.Metrics().Gauge("telemetry.journal.pending").Load(); n > 0 {
				return fmt.Errorf("%d spilled points awaiting replay", int(n))
			}
			return nil
		}})
	if err := srv.Listen(d.exposeAddr); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	d.exposeSrv = srv
	d.Logs.With("daemon").Info(context.Background(), "observability plane up",
		"addr", srv.Addr())
	return nil
}

// ExposeAddr returns the observability plane's bound listen address
// ("" when WithExpose was not given) — the base for /metrics, /healthz,
// /readyz, /debug/vars and /logs.
func (d *Daemon) ExposeAddr() string {
	if d.exposeSrv == nil {
		return ""
	}
	return d.exposeSrv.Addr()
}

// Close flushes and releases the daemon's durable state: both embedded
// databases sync their WALs and detach from their data directories.
// In-memory state stays readable; further writes are refused on durable
// databases. A no-op for fully in-memory daemons. Not context-bound:
// Close must run unconditionally on shutdown paths where the request
// context is already dead.
func (d *Daemon) Close() error {
	var exposeErr error
	if d.exposeSrv != nil {
		exposeErr = d.exposeSrv.Close()
		d.exposeSrv = nil
	}
	return errors.Join(exposeErr, d.TS.Close(), d.Docs.Close())
}

// opStart instruments one public daemon operation: it bumps the op's
// counters, opens a span (child of whatever ctx carries), and returns the
// span-carrying context plus the completion hook. With introspection
// disabled both are free.
func (d *Daemon) opStart(ctx context.Context, op string) (context.Context, func(error)) {
	in := d.Introspection
	if in == nil {
		return ctx, func(error) {}
	}
	reg := in.Metrics()
	reg.Counter("op." + op + ".total").Inc()
	reg.Gauge("ops.inflight").Add(1)
	ctx, span := in.StartSpan(ctx, "daemon."+op)
	start := time.Now()
	return ctx, func(err error) {
		span.End(err)
		reg.Gauge("ops.inflight").Add(-1)
		took := time.Since(start)
		reg.Histogram("op." + op + ".seconds").Observe(took.Seconds())
		if err != nil {
			reg.Counter("op." + op + ".errors").Inc()
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				reg.Counter("ops.canceled").Inc()
			}
			d.Logs.With("daemon").Error(ctx, "op failed",
				"op", op, "duration", took.String(), "error", err.Error())
		} else {
			d.Logs.With("daemon").Debug(ctx, "op complete",
				"op", op, "duration", took.String())
		}
		d.exportSelf(ctx)
	}
}

// exportSelf ships the self-metrics registry into the embedded TSDB under
// the pmove.self.* namespace — the monitor writing its own health through
// the same store it monitors targets with. With the plane up the runtime
// is sampled first, so the exported pmove.self.runtime.* series are as
// fresh as the op. Export failures only count; self-telemetry must never
// wedge the operation that emitted it.
func (d *Daemon) exportSelf(ctx context.Context) {
	in := d.Introspection
	if in == nil {
		return
	}
	if d.exposeAddr != "" {
		expose.CollectRuntime(in)
	}
	if _, err := selfexport.Export(context.WithoutCancel(ctx), in, d.TS, time.Now().UnixNano()); err != nil {
		in.Metrics().Counter("export.errors").Inc()
	}
}

// SelfSnapshot freezes the daemon's self-metrics registry (empty when
// introspection is disabled).
func (d *Daemon) SelfSnapshot() introspect.Snapshot {
	return d.Introspection.Snapshot()
}

// SelfSpans returns the finished self-observability spans, oldest first.
func (d *Daemon) SelfSpans() []introspect.Span {
	return d.Introspection.Tracer().Spans()
}

// MetaDashboard generates the dashboard over the daemon's own
// pmove.self.* series — the digital twin monitoring itself.
func (d *Daemon) MetaDashboard() (*dashboard.Dashboard, error) {
	if d.Introspection == nil {
		return nil, fmt.Errorf("core: introspection disabled (construct with WithIntrospection)")
	}
	return selfexport.MetaDashboard(d.Gen.DatasourceUID, d.SelfSnapshot())
}
