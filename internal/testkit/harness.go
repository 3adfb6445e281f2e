package testkit

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"pmove/internal/core"
	"pmove/internal/introspect"
	"pmove/internal/introspect/expose"
	"pmove/internal/introspect/logbuf"
	"pmove/internal/introspect/traceexport"
	"pmove/internal/kb"
	"pmove/internal/machine"
	"pmove/internal/resilience"
	"pmove/internal/storage"
	"pmove/internal/telemetry"
	"pmove/internal/topo"
	"pmove/internal/tsdb"
)

// Result is everything a simulation produced: the deterministic event
// log, the live collector with its cumulative accounting, the
// server-side database, the per-tick breaker observations and (when
// tracing) the assembled distributed traces. Verify runs every
// applicable invariant oracle over it.
type Result struct {
	Scenario Scenario
	Log      *EventLog

	Collector    *telemetry.Collector
	ServerDB     *tsdb.DB // the tsdb behind the fault proxy
	Measurements []string // measurements the session wrote
	KB           *kb.KB

	// BreakerStates holds one tsdb-transport breaker snapshot per tick.
	// Wall-clock cooldowns make the timing of transitions nondeterministic,
	// so these stay out of the event log and are only checked for machine
	// legality.
	BreakerStates []resilience.BreakerState

	// Traces are the assembled end-to-end traces (Tracing scenarios).
	Traces []*traceexport.Trace

	// Expose-scenario outputs: the plane's bound address (the server is
	// torn down when the run ends — the address documents, it does not
	// serve), one /readyz verdict per completed tick, whether a bounded
	// post-run replay loop brought readiness back, and the structured log
	// ring the stack wrote into.
	ExposeAddr     string
	ReadyStates    []bool
	RecoveredReady bool
	Logs           *logbuf.Logger

	// QueryOutcomes holds one entry per completed tick for
	// QueryEveryTick scenarios. Whether a query succeeds near a
	// partition boundary depends on wall-clock read timeouts, so
	// outcomes live here and never in the event log — replay stays
	// byte-identical with queries on or off.
	QueryOutcomes []QueryOutcome

	// SessionErr records a session abort (expected for non-degraded
	// scenarios whose sink dies); the log keeps the events up to it.
	SessionErr error

	// The client's retry and dial counts and the spans both rings
	// evicted: wall-clock dependent, so never in the log.
	ClientStats  tsdb.ClientStats
	DroppedSpans uint64
}

// QueryOutcome records one per-tick aggregate query through the
// resilient client: whether the wire round trip succeeded and how many
// windows the result carried.
type QueryOutcome struct {
	Tick uint64
	OK   bool
	Rows int
}

// harness is the live stack of one simulation run.
type harness struct {
	sc  Scenario
	res *Result

	daemon  *core.Daemon
	target  *core.Target
	session *telemetry.Session
	col     *telemetry.Collector

	tsdbDB     *tsdb.DB
	tsdbSrv    *tsdb.Server
	tsdbAddr   string // backend address, stable across restarts
	tsdbProxy  *resilience.Proxy
	tsdbClient *tsdb.Client

	// Durable-scenario state: the server's temporary data directory, its
	// WAL path (captured at open — a crashed DB no longer knows its path)
	// and the parsed fsync policy.
	fsync       storage.FsyncPolicy
	dataDir     string
	tsdbWALPath string
	// tsdbDown tracks the kill/restart window so WAL faults can insist
	// the server is actually down.
	tsdbDown bool

	// introspectors per process (Tracing scenarios; nil otherwise — every
	// instrumented path is nil-safe).
	daemonIn  *introspect.Introspector
	tsdbSrvIn *introspect.Introspector

	// Expose-scenario state: the structured log ring shared by the whole
	// stack and the observability-plane HTTP server over the daemon-side
	// registry.
	logs      *logbuf.Logger
	exposeSrv *expose.Server
}

// policy is the fail-fast resilience policy the harness client uses:
// refused connections and dead wires resolve in microseconds, a
// black-holed read resolves at the read deadline, and the op outcome for
// a given stack state is the same on every run.
func (sc Scenario) policy() resilience.Policy {
	pol := resilience.Policy{
		DialTimeout:  2 * time.Second,
		ReadTimeout:  150 * time.Millisecond,
		WriteTimeout: 150 * time.Millisecond,
		MaxRetries:   2,
		Backoff:      resilience.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond, Factor: 2, Jitter: 0.2},
		Seed:         sc.Seed,
	}
	if sc.Breaker {
		pol.Breaker = resilience.BreakerConfig{Threshold: 4, Cooldown: 50 * time.Millisecond}
	}
	return pol
}

// Run executes one simulation from its descriptor. Setup failures (ports,
// bad presets) return an error; in-scenario failures (outages, aborted
// sessions) are part of the result.
func Run(sc Scenario) (*Result, error) {
	h := &harness{sc: sc, res: &Result{Scenario: sc, Log: &EventLog{}}}
	defer h.close()
	if err := h.setup(); err != nil {
		return nil, err
	}
	if err := h.drive(); err != nil {
		return nil, err
	}
	h.finish()
	return h.res, nil
}

// setup stands the stack up: server, fault proxy, resilient client,
// daemon with a probed target, and the telemetry session.
func (h *harness) setup() error {
	sc := h.sc
	if sc.Load.Ticks == 0 {
		return fmt.Errorf("testkit: scenario has no ticks")
	}
	if sc.Load.FreqHz <= 0 {
		return fmt.Errorf("testkit: scenario needs a positive FreqHz")
	}
	if sc.Tracing {
		h.daemonIn = introspect.New(introspect.WithProcess("daemon"), introspect.WithSpanCapacity(1<<15))
		h.tsdbSrvIn = introspect.New(introspect.WithProcess("tsdb"), introspect.WithSpanCapacity(1<<15))
	}
	if sc.Expose {
		// The plane exposes the daemon-side registry; bring it up even when
		// the scenario does not trace, so readiness probes have gauges.
		if h.daemonIn == nil {
			h.daemonIn = introspect.New(introspect.WithProcess("daemon"))
		}
		h.logs = logbuf.New(0)
		h.res.Logs = h.logs
	}

	// Backend and its fault proxy. The client dials the proxy, so every
	// byte of the wire protocol crosses the fault-injection layer.
	if sc.Durable {
		pol, err := storage.ParseFsyncPolicy(sc.Fsync)
		if err != nil {
			return fmt.Errorf("testkit: %w", err)
		}
		h.fsync = pol
		if h.dataDir, err = os.MkdirTemp("", "testkit-durable-*"); err != nil {
			return err
		}
		db, err := tsdb.Open(filepath.Join(h.dataDir, "tsdb"), pol)
		if err != nil {
			return err
		}
		h.tsdbDB = db
		h.tsdbWALPath = db.WALPath()
	} else {
		h.tsdbDB = tsdb.New()
	}
	h.tsdbSrv = tsdb.NewServer(h.tsdbDB)
	h.tsdbSrv.SetTracing(h.tsdbSrvIn)
	addr, err := h.tsdbSrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	h.tsdbAddr = addr
	h.tsdbProxy = resilience.NewProxy(addr, resilience.Faults{}, sc.Seed)
	tsdbProxyAddr, err := h.tsdbProxy.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}

	h.tsdbClient, err = tsdb.DialPolicy(tsdbProxyAddr, sc.policy())
	if err != nil {
		return err
	}
	h.tsdbClient.SetIntrospection(h.daemonIn, "tsdb")
	h.tsdbClient.SetLogger(h.logs.With("transport.tsdb"))
	h.tsdbSrv.SetLogger(h.logs.With("tsdb.server"), 100*time.Millisecond)

	// Daemon with one attached, probed target. The KB, dashboards and
	// observation entries flow through the same code paths production
	// uses; only the session loop is driven tick by tick from here. The
	// daemon's document store is embedded, as in production.
	env := core.EnvFromOS()
	env.InfluxAddr, env.MongoAddr = tsdbProxyAddr, "embedded"
	h.daemon, err = core.NewWith(core.WithEnv(env))
	if err != nil {
		return err
	}
	sys, err := topo.NewPreset(sc.preset())
	if err != nil {
		return err
	}
	h.target, err = h.daemon.AttachTarget(sys, machine.Config{Seed: sc.Seed}, sc.pipeline())
	if err != nil {
		return err
	}
	k, err := h.daemon.ProbeContext(context.Background(), sys.Hostname)
	if err != nil {
		return err
	}
	h.res.KB = k
	dashes, err := h.daemon.Gen.KindDashboards(k)
	if err != nil {
		return err
	}
	h.note(0, fmt.Sprintf("setup preset=%s dashboards=%d kb-nodes=%d", sc.preset(), len(dashes), k.Len()))

	metrics := sc.Load.Metrics
	if len(metrics) == 0 {
		metrics = defaultMetrics()
	}
	for _, m := range metrics {
		h.res.Measurements = append(h.res.Measurements, tsdb.MeasurementName(m))
	}
	h.col = telemetry.NewCollector(nil, sc.pipeline())
	h.col.Sink = h.tsdbClient
	h.col.Self = h.daemonIn
	h.col.Log = h.logs.With("telemetry")
	h.res.Collector = h.col
	h.session, err = telemetry.NewSession(h.target.PMCD, h.col, telemetry.SessionConfig{
		Metrics: metrics, FreqHz: sc.Load.FreqHz, Tag: "testkit",
	})
	if err != nil {
		return err
	}
	if sc.Expose {
		if err := h.startExpose(); err != nil {
			return err
		}
	}
	return nil
}

// startExpose stands the observability plane up over the harness's
// daemon-side registry, with the same breaker- and backlog-aware
// readiness probes the production daemon wires (core.WithExpose).
func (h *harness) startExpose() error {
	srv := expose.NewServer(h.daemonIn, map[string]string{"process": "harness"}, h.logs,
		expose.Check{Name: "telemetry-sink", Probe: func() error {
			if st := h.tsdbClient.BreakerState(); st == resilience.BreakerOpen {
				return fmt.Errorf("sink breaker %s", st)
			}
			return nil
		}},
		expose.Check{Name: "telemetry-backlog", Probe: func() error {
			if n := h.daemonIn.Metrics().Gauge("telemetry.journal.pending").Load(); n > 0 {
				return fmt.Errorf("%d spilled points awaiting replay", int(n))
			}
			return nil
		}})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	h.exposeSrv = srv
	h.res.ExposeAddr = srv.Addr()
	return nil
}

// ready polls the plane's /readyz over the real socket.
func (h *harness) ready() bool {
	resp, err := http.Get("http://" + h.exposeSrv.Addr() + "/readyz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// rootSpan wraps every tick of a run, so a traced run is one trace.
const rootSpan = "chaos.trace"

// drive runs the seeded schedule: faults at tick boundaries, one sampling
// tick at a time, and one event log entry per observable step.
func (h *harness) drive() error {
	ctx, root := h.daemonIn.StartSpan(context.Background(), rootSpan)
	defer func() { root.End(h.res.SessionErr) }()
	for tick := uint64(1); tick <= h.sc.Load.Ticks; tick++ {
		for _, f := range h.sc.Faults {
			if f.AtTick == tick {
				if err := h.applyFault(f); err != nil {
					return err
				}
				h.res.Log.Append(Event{Tick: tick, Kind: "fault", Detail: string(f.Kind)})
			}
		}
		if err := h.session.TickContext(ctx, tick == h.sc.Load.Ticks); err != nil {
			// Expected for non-degraded scenarios whose sink died. The
			// detail stays free of addresses/timing so the log replays.
			h.res.SessionErr = err
			h.res.Log.Append(Event{Tick: tick, Kind: "note", Detail: "session-error"})
			break
		}
		h.res.BreakerStates = append(h.res.BreakerStates, h.tsdbClient.BreakerState())
		if h.sc.Expose {
			h.res.ReadyStates = append(h.res.ReadyStates, h.ready())
		}
		if h.sc.QueryEveryTick {
			h.res.QueryOutcomes = append(h.res.QueryOutcomes, h.queryTick(ctx, tick))
		}
		h.res.Log.Append(h.tickEvent(tick))
	}
	if h.sc.Expose && h.res.SessionErr == nil {
		h.recoverReady(ctx)
	}
	return nil
}

// recoverReady drives the post-run recovery an operator would: replay
// the spill journal against the (presumably healed) sink until /readyz
// reports ready again. Bounded — an unhealed sink leaves
// RecoveredReady false rather than hanging the run. Wall-clock paced
// around the breaker cooldown, so nothing here enters the event log.
func (h *harness) recoverReady(ctx context.Context) {
	for i := 0; i < 100; i++ {
		if h.ready() {
			h.res.RecoveredReady = true
			return
		}
		// Replay both drains the backlog check and, by writing through
		// the transport, walks an open breaker through half-open → closed.
		h.col.ReplayContext(ctx)
		time.Sleep(10 * time.Millisecond)
	}
}

// queryTick runs the per-tick aggregate probe through the resilient
// client. An error is an outcome, not a harness failure: during a
// partition window the query SHOULD fail, and the chaos scenarios
// assert exactly that shape around the fault boundaries.
func (h *harness) queryTick(ctx context.Context, tick uint64) QueryOutcome {
	stmt := fmt.Sprintf(`SELECT count(%q), mean(%q) FROM %q WHERE tag=%q GROUP BY time(1s)`,
		"_cpu0", "_cpu0", h.res.Measurements[0], "testkit")
	out := QueryOutcome{Tick: tick}
	res, err := h.tsdbClient.QueryContext(ctx, stmt)
	if err != nil {
		return out
	}
	out.OK = true
	out.Rows = len(res.Rows)
	return out
}

// tickEvent snapshots the collector's cumulative accounting.
func (h *harness) tickEvent(tick uint64) Event {
	return Event{
		Tick: tick, Kind: "tick",
		Expected:     h.col.Expected,
		Inserted:     h.col.Inserted,
		Zeros:        h.col.Zeros,
		Lost:         h.col.Lost,
		Spilled:      h.col.Spilled,
		Replayed:     h.col.Replayed,
		SpillDropped: h.col.SpillDropped,
		Pending:      h.col.PendingSpillFields(),
		Degraded:     h.col.Degraded(),
	}
}

// applyFault mutates the stack at a tick boundary.
func (h *harness) applyFault(f FaultEvent) error {
	switch f.Kind {
	case FaultKillTSDB:
		// Durable kill = process death: crash the database first
		// (discarding whatever the fsync policy had not made stable —
		// the server's flush-on-close must not rescue it), then tear the
		// listener down. Faults land at tick boundaries, so no write is
		// in flight when the store detaches.
		h.tsdbDown = true
		if h.sc.Durable {
			if err := h.tsdbDB.Crash(); err != nil {
				return err
			}
		}
		return h.tsdbSrv.Close()
	case FaultRestartTSDB:
		if h.sc.Durable {
			db, err := tsdb.Open(filepath.Join(h.dataDir, "tsdb"), h.fsync)
			if err != nil {
				return fmt.Errorf("testkit: tsdb recovery: %w", err)
			}
			h.tsdbDB = db
		}
		h.tsdbDown = false
		h.tsdbSrv = tsdb.NewServer(h.tsdbDB)
		h.tsdbSrv.SetTracing(h.tsdbSrvIn)
		h.tsdbSrv.SetLogger(h.logs.With("tsdb.server"), 100*time.Millisecond)
		_, err := h.tsdbSrv.Listen(h.tsdbAddr)
		return err
	case FaultPartitionTSDB:
		h.tsdbProxy.Partition()
	case FaultHealTSDB:
		h.tsdbProxy.Heal()
	case FaultDropTSDBConns:
		h.tsdbProxy.DropConns()
	case FaultTornTSDBWAL:
		return h.injectWALTail(false, f.Kind)
	case FaultCorruptTailTSDBWAL:
		return h.injectWALTail(true, f.Kind)
	default:
		return fmt.Errorf("testkit: unknown fault kind %q", f.Kind)
	}
	return nil
}

// injectWALTail writes crash residue at the logical end of the tsdb WAL,
// where the append in flight would have been: a torn frame (header
// promising more bytes than follow) or a complete final frame with a
// mismatched checksum. Zeros or the file's end follow it, so recovery
// must truncate either. Only legal in Durable scenarios while the
// server is down — a live WAL would write its next frame over part of
// the residue and leave the rest after it, which (correctly) turns
// restart into a hard corruption error.
func (h *harness) injectWALTail(corrupt bool, kind FaultKind) error {
	if !h.sc.Durable {
		return fmt.Errorf("testkit: %s requires a Durable scenario", kind)
	}
	if !h.tsdbDown {
		return fmt.Errorf("testkit: %s requires the server to be killed first", kind)
	}
	frame, err := storage.AppendRecord(nil, ^uint64(0), []byte("crash residue: this frame must not survive recovery"))
	if err != nil {
		return err
	}
	if corrupt {
		frame[len(frame)-1] ^= 0xff // full frame, bad checksum
	} else {
		frame = frame[:len(frame)-9] // header promises 9 missing bytes
	}
	img, err := os.ReadFile(h.tsdbWALPath)
	if err != nil {
		return fmt.Errorf("testkit: %s: %w", kind, err)
	}
	_, end, err := storage.DecodeAll(img)
	if err != nil {
		return fmt.Errorf("testkit: %s: %w", kind, err)
	}
	f, err := os.OpenFile(h.tsdbWALPath, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("testkit: %s: %w", kind, err)
	}
	if _, err := f.WriteAt(frame, int64(end)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finish attaches the session observation to the KB (the production
// Monitor epilogue), reads the wall-clock counters, assembles traces.
func (h *harness) finish() {
	obs := &kb.Observation{
		ID:      "obs:testkit",
		Type:    "ObservationInterface",
		Tag:     "testkit",
		Host:    h.target.System.Hostname,
		Command: "testkit",
		FreqHz:  h.sc.Load.FreqHz,
		Report: fmt.Sprintf("testkit: %d expected, %d inserted, %d lost, %d evicted",
			h.col.Expected, h.col.Inserted, h.col.Lost, h.col.SpillDropped),
	}
	if h.res.KB != nil {
		if err := h.res.KB.Attach(obs); err == nil {
			// Best-effort persist into the daemon's embedded store.
			_ = h.res.KB.Persist(h.daemon.Docs)
		}
	}
	h.res.ClientStats = h.tsdbClient.Stats()
	h.res.DroppedSpans = h.daemonIn.Tracer().Dropped() + h.tsdbSrvIn.Tracer().Dropped()
	if h.sc.Tracing {
		c := traceexport.NewCollector()
		c.Add("daemon", h.daemonIn.Tracer())
		c.Add("tsdb", h.tsdbSrvIn.Tracer())
		h.res.Traces = c.Traces()
	}
	h.res.ServerDB = h.tsdbDB
}

// note appends a free-text event (setup summaries).
func (h *harness) note(tick uint64, detail string) {
	h.res.Log.Append(Event{Tick: tick, Kind: "note", Detail: detail})
}

// close tears the stack down in dependency order. A durable database is
// closed (flushing its WAL) and its data directory removed; the
// recovered in-memory image stays readable for the oracles, which run
// against the Result after close.
func (h *harness) close() {
	if h.exposeSrv != nil {
		h.exposeSrv.Close()
	}
	if h.tsdbClient != nil {
		h.tsdbClient.Close()
	}
	if h.tsdbProxy != nil {
		h.tsdbProxy.Close()
	}
	if h.tsdbSrv != nil {
		h.tsdbSrv.Close()
	}
	if h.sc.Durable {
		if h.tsdbDB != nil {
			h.tsdbDB.Close()
		}
		if h.dataDir != "" {
			os.RemoveAll(h.dataDir)
		}
	}
}
