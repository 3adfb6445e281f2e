// Package pmove is the public facade of the P-MoVE reproduction: a
// performance monitoring and visualization framework with encoded
// knowledge (Taşyaran et al., SC 2024). It re-exports the user-facing
// surface of the internal packages so applications can drive the full
// pipeline — probe a (simulated) system, generate its Knowledge Base,
// monitor software telemetry, observe kernel executions with PMU
// sampling, construct cache-aware roofline models, and generate
// dashboards — from a single import.
//
//	d, _ := pmove.NewDaemonWith(pmove.WithEnv(pmove.EnvFromOS()))
//	sys := pmove.MustPreset(pmove.PresetSKX)
//	d.AttachTarget(sys, pmove.MachineConfig{Seed: 1}, pmove.DefaultPipeline())
//	kb, _ := d.ProbeContext(ctx, sys.Hostname)
package pmove

import (
	"context"

	"pmove/internal/abst"
	"pmove/internal/anomaly"
	"pmove/internal/carm"
	"pmove/internal/cluster"
	"pmove/internal/core"
	"pmove/internal/dashboard"
	"pmove/internal/docdb"
	"pmove/internal/introspect"
	"pmove/internal/introspect/expose"
	"pmove/internal/introspect/logbuf"
	"pmove/internal/introspect/traceexport"
	"pmove/internal/kb"
	"pmove/internal/kernels"
	"pmove/internal/machine"
	"pmove/internal/ontology"
	"pmove/internal/spmv"
	"pmove/internal/storage"
	"pmove/internal/superdb"
	"pmove/internal/telemetry"
	"pmove/internal/topo"
	"pmove/internal/tsdb"
	"pmove/internal/whatif"
)

// Daemon orchestration (internal/core).
//
// Public daemon operations are context-first: every op has a
// <Name>Context(ctx, ...) form whose cancellation is honored through
// sampling loops, retry backoffs and in-flight DB requests.
type (
	// Daemon is the P-MoVE host process.
	Daemon = core.Daemon
	// Env is the daemon's environment configuration.
	Env = core.Env
	// DaemonOption is a functional construction option for NewDaemonWith.
	DaemonOption = core.Option
	// Target is one attached system.
	Target = core.Target
	// MonitorRequest configures a Scenario A monitoring run.
	MonitorRequest = core.MonitorRequest
	// ObserveRequest configures a Scenario B observation.
	ObserveRequest = core.ObserveRequest
	// ObserveResult is a completed observation.
	ObserveResult = core.ObserveResult
	// MonitorResult is a completed Scenario A run.
	MonitorResult = core.MonitorResult
	// LiveCARMRequest configures a live-CARM run.
	LiveCARMRequest = core.LiveCARMRequest
	// LiveCARMPhase labels one kernel for live-CARM profiling.
	LiveCARMPhase = core.LiveCARMPhase
	// LiveCARMResult carries the live panel and phase summaries.
	LiveCARMResult = core.LiveCARMResult
)

// NewDaemonWith creates a daemon from functional options (WithEnv,
// WithDataDir, WithIntrospection, WithExpose). A remote telemetry sink
// is set afterwards with Daemon.SetTelemetrySink.
func NewDaemonWith(opts ...DaemonOption) (*Daemon, error) { return core.NewWith(opts...) }

// Daemon construction options.
var (
	// WithEnv replaces the whole environment configuration.
	WithEnv = core.WithEnv
	// WithDataDir backs the embedded databases with WAL+snapshot data
	// directories ("always"|"interval"|"never" fsync policy) so daemon
	// state survives a crash; pair with Daemon.Close on shutdown.
	WithDataDir = core.WithDataDir
	// WithExpose serves the live observability plane on an address:
	// /metrics (OpenMetrics), /healthz, /readyz, /debug/vars and /logs.
	// Implies introspection and a structured log ring; the bound address
	// is Daemon.ExposeAddr.
	WithExpose = core.WithExpose
)

// WithIntrospection enables the self-observability layer (metrics,
// spans, pmove.self.* export and the meta dashboard).
func WithIntrospection(opts ...IntrospectOption) DaemonOption {
	return core.WithIntrospection(opts...)
}

// Self-observability (internal/introspect).
type (
	// Introspector is the self-observability layer: a metrics registry
	// plus a span tracer.
	Introspector = introspect.Introspector
	// IntrospectOption configures an Introspector.
	IntrospectOption = introspect.Option
	// SelfSnapshot is a frozen view of the self-metrics registry.
	SelfSnapshot = introspect.Snapshot
	// SelfMetric is one metric in a snapshot.
	SelfMetric = introspect.Metric
	// SelfKind labels a self metric (counter, gauge, histogram).
	SelfKind = introspect.Kind
	// SelfSpan is one finished trace span.
	SelfSpan = introspect.Span
)

// Self-metric kinds.
const (
	SelfKindCounter   = introspect.KindCounter
	SelfKindGauge     = introspect.KindGauge
	SelfKindHistogram = introspect.KindHistogram
)

// Introspector construction options.
var (
	// WithSpanCapacity bounds the finished-span ring.
	WithSpanCapacity = introspect.WithSpanCapacity
	// WithTraceSampling sets the head-based trace sampling rate (errored
	// spans are always kept); seed 0 derives one from the clock.
	WithTraceSampling = introspect.WithSampling
)

// Live observability plane (internal/introspect/expose + logbuf): the
// OpenMetrics/health/vars/logs HTTP surface WithExpose serves, and the
// trace-correlated structured log ring behind Daemon.Logs.
type (
	// ExposeSource is one metrics registry the observability plane
	// scrapes.
	ExposeSource = expose.Source
	// LogBuffer is a bounded, concurrency-safe structured log ring.
	LogBuffer = logbuf.Logger
	// LogRecord is one structured record in a LogBuffer.
	LogRecord = logbuf.Record
	// LogField is one key/value pair on a LogRecord.
	LogField = logbuf.Field
	// LogLevel is a LogBuffer severity.
	LogLevel = logbuf.Level
	// LogQuery filters LogBuffer.Filter by level, trace and component.
	LogQuery = logbuf.Query
)

// Log levels.
const (
	LogDebug = logbuf.Debug
	LogInfo  = logbuf.Info
	LogWarn  = logbuf.Warn
	LogError = logbuf.Error
)

// Observability-plane functions.
var (
	// ExposeSourceFor adapts an Introspector into an ExposeSource.
	ExposeSourceFor = expose.SourceFor
	// EncodeSelfVars writes registries as the /debug/vars JSON document
	// (`pmove introspect -json` shares this encoder).
	EncodeSelfVars = expose.EncodeVars
)

// Distributed tracing (internal/introspect + traceexport): 128-bit trace
// IDs propagated over the wire as a traceparent field on the tsdb line
// protocol and docdb request frames, assembled across processes into
// trace trees with per-hop latency attribution and Chrome-trace export.
type (
	// TraceID is a 128-bit distributed trace identifier.
	TraceID = introspect.TraceID
	// Trace is one assembled multi-process trace tree.
	Trace = traceexport.Trace
	// TraceNode is one span plus its children inside a Trace.
	TraceNode = traceexport.Node
	// TraceCollector gathers span rings from several processes.
	TraceCollector = traceexport.Collector
	// TraceAttribution partitions a trace's wire time into per-hop
	// components (client queue, network, retry, server phases).
	TraceAttribution = traceexport.Attribution
)

// Distributed-tracing functions.
var (
	// NewTraceCollector creates an empty multi-process trace collector.
	NewTraceCollector = traceexport.NewCollector
	// AttributeTrace computes per-hop latency attribution for a trace.
	AttributeTrace = traceexport.Attribute
	// TraceWaterfall renders a trace as an indented text timeline.
	TraceWaterfall = traceexport.Waterfall
	// ChromeTrace exports a trace as Chrome trace-event JSON
	// (chrome://tracing / Perfetto loadable).
	ChromeTrace = traceexport.ChromeTrace
)

// EnvFromOS reads the daemon configuration from the environment.
func EnvFromOS() Env { return core.EnvFromOS() }

// Topology and machine simulation.
type (
	// System describes one target machine.
	System = topo.System
	// MachineConfig tunes the execution engine.
	MachineConfig = machine.Config
	// Machine is the analytic execution engine.
	Machine = machine.Machine
	// WorkloadSpec describes a kernel for the engine.
	WorkloadSpec = machine.WorkloadSpec
	// Execution is a (completed) kernel run.
	Execution = machine.Execution
	// ISA is a vector instruction-set extension.
	ISA = topo.ISA
	// PinStrategy selects thread-to-core binding.
	PinStrategy = topo.PinStrategy
	// CacheLevel identifies a memory-hierarchy level.
	CacheLevel = topo.CacheLevel
)

// Preset hosts of Table II.
const (
	PresetSKX  = topo.PresetSKX
	PresetICL  = topo.PresetICL
	PresetCSL  = topo.PresetCSL
	PresetZEN3 = topo.PresetZEN3
)

// ISA extensions.
const (
	ISAScalar = topo.ISAScalar
	ISASSE    = topo.ISASSE
	ISAAVX2   = topo.ISAAVX2
	ISAAVX512 = topo.ISAAVX512
)

// Pinning strategies (Figure 3, Scenario B).
const (
	PinBalanced     = topo.PinBalanced
	PinCompact      = topo.PinCompact
	PinNUMABalanced = topo.PinNUMABalanced
	PinNUMACompact  = topo.PinNUMACompact
)

// Memory levels.
const (
	L1   = topo.L1
	L2   = topo.L2
	L3   = topo.L3
	DRAM = topo.DRAM
)

// NewPreset builds one of the Table II systems.
func NewPreset(name string) (*System, error) { return topo.NewPreset(name) }

// MustPreset is NewPreset panicking on unknown names.
func MustPreset(name string) *System { return topo.MustPreset(name) }

// WithGPU attaches a Listing-4-style GPU to a system.
func WithGPU(s *System) *System { return topo.WithGPU(s) }

// NewMachine builds an execution engine for a system.
func NewMachine(sys *System, cfg MachineConfig) (*Machine, error) { return machine.New(sys, cfg) }

// Pin computes a thread affinity for a strategy.
func Pin(sys *System, strategy PinStrategy, n int) ([]int, error) {
	return topo.Pin(sys, strategy, n)
}

// Knowledge base.
type (
	// KB is the knowledge base of one system.
	KB = kb.KB
	// KBNode is one component twin.
	KBNode = kb.Node
	// Observation is an ObservationInterface entry.
	Observation = kb.Observation
	// Benchmark is a BenchmarkInterface entry.
	Benchmark = kb.Benchmark
	// View is a focus/subtree/level selection of the KB.
	View = kb.View
	// ComponentKind is an HPC-ontology component class.
	ComponentKind = ontology.ComponentKind
	// Interface is a DTDL interface (one (sub)twin).
	Interface = ontology.Interface
)

// Component kinds of the HPC ontology.
const (
	KindSystem  = ontology.KindSystem
	KindSocket  = ontology.KindSocket
	KindNUMA    = ontology.KindNUMA
	KindCore    = ontology.KindCore
	KindThread  = ontology.KindThread
	KindCache   = ontology.KindCache
	KindMemory  = ontology.KindMemory
	KindDisk    = ontology.KindDisk
	KindNIC     = ontology.KindNIC
	KindGPU     = ontology.KindGPU
	KindProcess = ontology.KindProcess
)

// CrossLevelView merges level views across systems (Fig 2d).
func CrossLevelView(kind ComponentKind, kbs ...*KB) (*View, error) {
	return kb.CrossLevelView(kind, kbs...)
}

// Telemetry pipeline.
type (
	// PipelineConfig models the host-target shipment path.
	PipelineConfig = telemetry.PipelineConfig
	// SessionStats summarises a sampling session (one Table III row).
	SessionStats = telemetry.SessionStats
)

// DefaultPipeline is the paper-calibrated shipment configuration.
func DefaultPipeline() PipelineConfig { return telemetry.DefaultPipeline() }

// Telemetry sinks.
type (
	// PointSink is where a telemetry collector lands points — the
	// embedded TSDB or a resilient remote client; the same contract as
	// BatchWriter.
	PointSink = telemetry.PointSink
)

// Databases.
type (
	// TSDB is the embedded time-series database (InfluxDB substitute).
	TSDB = tsdb.DB
	// DocDB is the embedded document database (MongoDB substitute).
	DocDB = docdb.DB
	// SuperDB is the global performance database (§III-E).
	SuperDB = superdb.SuperDB
	// BatchWriter is the unified batched write surface (embedded TSDB,
	// wire client, and superdb remote all satisfy it).
	BatchWriter = tsdb.BatchWriter
	// QueryRequest is the request-struct form of a TSDB query.
	QueryRequest = tsdb.QueryRequest
	// Query is the parsed SELECT subset (raw fields or aggregates,
	// equality tag filters, time bounds, GROUP BY time windowing).
	Query = tsdb.Query
	// Aggregate is one aggregation column of a Query
	// (mean/min/max/sum/count/pNN of a field).
	Aggregate = tsdb.Aggregate
	// QueryResult is a query result: columns plus rows.
	QueryResult = tsdb.Result
)

// ParseQuery parses a SELECT statement into its Query form; the
// rendering Query.String is canonical (ParseQuery(q.String()) == q).
func ParseQuery(stmt string) (*Query, error) { return tsdb.ParseQuery(stmt) }

// OpenTSDB opens (or creates) a WAL-backed embedded time-series store
// under dir. fsync is "always", "interval" or "never" — the same
// policy names WithDataDir and the -fsync flag accept.
func OpenTSDB(dir, fsync string) (*TSDB, error) {
	pol, err := storage.ParseFsyncPolicy(fsync)
	if err != nil {
		return nil, err
	}
	return tsdb.Open(dir, pol)
}

// NewSuperDB creates an empty global performance database.
func NewSuperDB() *SuperDB { return superdb.New() }

// CARM.
type (
	// CARMModel is a constructed cache-aware roofline model.
	CARMModel = carm.Model
	// CARMPoint is a live application point.
	CARMPoint = carm.Point
	// CARMSummary aggregates live points per phase.
	CARMSummary = carm.Summary
)

// RenderCARM draws a CARM plot with points as terminal text.
func RenderCARM(m *CARMModel, points []CARMPoint, width, height int) string {
	return carm.RenderASCII(m, points, width, height)
}

// Dashboards.
type (
	// Dashboard is the Grafana-style JSON document (Listing 1).
	Dashboard = dashboard.Dashboard
	// DashboardGenerator builds dashboards from KB views.
	DashboardGenerator = dashboard.Generator
)

// RenderDashboard draws every panel of a dashboard as terminal text.
func RenderDashboard(ctx context.Context, db *TSDB, d *Dashboard, width int) (string, error) {
	return dashboard.RenderDashboardASCII(ctx, db, d, width)
}

// Abstraction layer.
type (
	// AbstRegistry answers pmu_utils.get-style lookups.
	AbstRegistry = abst.Registry
)

// DefaultAbstRegistry returns the built-in Table I mappings.
func DefaultAbstRegistry() (*AbstRegistry, error) { return abst.DefaultRegistry() }

// Workloads.
type (
	// CSR is a sparse matrix in compressed sparse row format.
	CSR = spmv.CSR
	// SpMVAlgorithm selects the SpMV kernel.
	SpMVAlgorithm = spmv.Algorithm
	// Ordering selects a matrix reordering.
	Ordering = spmv.Ordering
)

// SpMV algorithms and orderings.
const (
	AlgoMKL     = spmv.AlgoMKL
	AlgoMerge   = spmv.AlgoMerge
	OrderNone   = spmv.OrderNone
	OrderRCM    = spmv.OrderRCM
	OrderDegree = spmv.OrderDegree
	OrderRandom = spmv.OrderRandom
)

// GenerateMatrix builds a synthetic Table IV matrix.
func GenerateMatrix(name string, targetRows int, seed uint64) (*CSR, error) {
	return spmv.Generate(name, targetRows, seed)
}

// Reorder applies a reordering to a matrix.
func Reorder(m *CSR, ord Ordering, seed uint64) (*CSR, []int, error) {
	return spmv.Reorder(m, ord, seed)
}

// SpMV computes y = A*x with the selected algorithm.
func SpMV(m *CSR, algo SpMVAlgorithm, x, y []float64, threads int) error {
	return spmv.MultiplyParallel(m, algo, x, y, threads)
}

// DeriveSpMVWorkload converts a matrix+algorithm into an engine workload.
func DeriveSpMVWorkload(sys *System, m *CSR, algo SpMVAlgorithm, threads int) (WorkloadSpec, error) {
	return spmv.DeriveWorkload(sys, m, algo, threads)
}

// LikwidKernel builds one of the likwid-bench kernels (sum, stream,
// triad, peakflops, ddot, daxpy).
func LikwidKernel(name string, isa ISA, wssBytes int64, sweeps int) (WorkloadSpec, error) {
	return kernels.Likwid(name, isa, wssBytes, sweeps)
}

// Extensions: anomaly detection, what-if prediction, cluster scheduling.
type (
	// AnomalyScanner runs detectors over an observation's telemetry.
	AnomalyScanner = anomaly.Scanner
	// AnomalyFinding is one detected anomaly.
	AnomalyFinding = anomaly.Finding
	// WhatIfOutcome is a predicted execution on a candidate system.
	WhatIfOutcome = whatif.Outcome
	// Cluster is a multi-node simulated system with a batch scheduler.
	Cluster = cluster.Cluster
)

// DefaultAnomalyScanner returns the standard detector set (z-score,
// stalled counters, sibling imbalance).
func DefaultAnomalyScanner() *AnomalyScanner { return anomaly.DefaultScanner() }

// PredictOn replays a workload on a candidate system — the digital twin's
// "predictive performance modelling on a candidate architecture".
func PredictOn(sys *System, spec WorkloadSpec, threads int, pin PinStrategy) (WhatIfOutcome, error) {
	return whatif.Predict(sys, spec, threads, pin)
}

// RecommendUpgrade ranks all built-in presets against a baseline for a
// workload and phrases a hardware suggestion.
func RecommendUpgrade(baseline string, spec WorkloadSpec, threads int) (*whatif.Recommendation, error) {
	return whatif.Recommend(baseline, spec, threads)
}

// NewCluster builds an n-node cluster of a preset with the given fabric.
func NewCluster(preset string, n int, fabric cluster.Interconnect, seed uint64) (*Cluster, error) {
	return cluster.New(preset, n, fabric, seed)
}
