// Package telemetry is the metric collection, transport and storage
// framework standing in for Performance Co-Pilot (PCP): a coordinator
// (pmcd) managing specialised agents (pmdaperfevent for PMU counters,
// pmdalinux for kernel metrics, pmdaproc for per-process metrics), a
// sampling loop driven by the machine's virtual clock, and an unbuffered
// host-side pipeline whose insertion latency produces the data-point
// losses and batched zeros of Table III ("There is no buffer or queue
// mechanism to keep data points until their insertion into the DB").
package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pmove/internal/machine"
	"pmove/internal/pmu"
	"pmove/internal/tsdb"
)

// Agent names, mirroring the PCP daemons measured in Fig 6.
const (
	AgentPMCD      = "pmcd"
	AgentPerfevent = "pmdaperfevent"
	AgentLinux     = "pmdalinux"
	AgentProc      = "pmdaproc"
)

// Sample is one metric reading across its instance domain at one time.
type Sample struct {
	Metric string
	// Values maps field/instance name (e.g. "_cpu0") to value.
	Values map[string]float64
}

// Agent is a metric source on the target.
type Agent interface {
	// Name identifies the agent (pmcd routing key).
	Name() string
	// Metrics lists the metric names the agent serves.
	Metrics() []string
	// Sample reads one metric now. The agent charges its own CPU cost to
	// its resource accounting.
	Sample(metric string) (Sample, error)
}

// ResourceUsage accumulates an agent's footprint on the target — the Fig 6
// quantities.
type ResourceUsage struct {
	mu          sync.Mutex
	CPUSeconds  float64
	MemoryBytes int64 // constant per agent ("all agents maintain constant memory usage")
	SampleCalls int64
}

// AddCPU accumulates CPU seconds.
func (r *ResourceUsage) AddCPU(s float64) {
	r.mu.Lock()
	r.CPUSeconds += s
	r.SampleCalls++
	r.mu.Unlock()
}

// Snapshot returns a copy of the counters.
func (r *ResourceUsage) Snapshot() (cpu float64, mem int64, calls int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.CPUSeconds, r.MemoryBytes, r.SampleCalls
}

// cpuCostPerValue is the CPU time one value read/encode costs an agent.
const cpuCostPerValue = 2e-6

// PerfeventAgent samples PMU counters through the machine (the Linux perf
// interface in the real system). Only programmed events can be sampled.
type PerfeventAgent struct {
	m     *machine.Machine
	usage ResourceUsage
	// byMetric resolves metric names back to catalog event names; the
	// metric rendering is lossy (':' becomes '_'), so the inverse comes
	// from the catalog rather than string surgery.
	byMetric map[string]string
	// The two instance domains, resolved once: every hardware thread in
	// id order and every socket, each with its counters and the field
	// name its readings are reported under.
	cpus    []cpuInstance
	sockets []socketInstance
}

type cpuInstance struct {
	id   int
	name string // "_cpuN"
	pmu  *pmu.ThreadPMU
}

type socketInstance struct {
	name string // "_socketN"
	rapl *pmu.RAPL
}

// NewPerfeventAgent wraps a machine.
func NewPerfeventAgent(m *machine.Machine) *PerfeventAgent {
	a := &PerfeventAgent{m: m, usage: ResourceUsage{MemoryBytes: 6 << 20}, byMetric: map[string]string{}}
	for _, ev := range m.Catalog().Names() {
		a.byMetric[MetricForEvent(ev)] = ev
	}
	// The lookups cannot fail: the machine built a counter file for every
	// thread and socket of this same system.
	for _, t := range m.System().AllThreads() {
		tp, _ := m.ThreadPMU(t.ID)
		a.cpus = append(a.cpus, cpuInstance{t.ID, fmt.Sprintf("_cpu%d", t.ID), tp})
	}
	for _, sk := range m.System().Sockets {
		r, _ := m.RAPL(sk.ID)
		a.sockets = append(a.sockets, socketInstance{fmt.Sprintf("_socket%d", sk.ID), r})
	}
	return a
}

// Name implements Agent.
func (a *PerfeventAgent) Name() string { return AgentPerfevent }

// Usage exposes the agent's resource accounting.
func (a *PerfeventAgent) Usage() *ResourceUsage { return &a.usage }

// Metrics lists perfevent metric names: "perfevent.hwcounters.<event>" for
// every event in the catalog.
func (a *PerfeventAgent) Metrics() []string {
	var out []string
	for _, ev := range a.m.Catalog().Names() {
		out = append(out, MetricForEvent(ev))
	}
	sort.Strings(out)
	return out
}

// MetricForEvent converts an event name to its PCP metric name, matching
// the paper's Listing 1 measurement style after the tsdb rewrite
// ("perfevent_hwcounters_FP_ARITH_SCALAR_SINGLE"): the Intel mask colon
// becomes a single underscore. The mapping is lossy, so the perfevent
// agent inverts it through its catalog, not by string surgery.
func MetricForEvent(ev string) string {
	return "perfevent.hwcounters." + strings.ReplaceAll(ev, ":", "_")
}

// EventForMetric inverts MetricForEvent using a catalog-derived table.
func (a *PerfeventAgent) EventForMetric(metric string) (string, bool) {
	ev, ok := a.byMetric[metric]
	return ev, ok
}

// Sample reads one hardware event across all hardware threads (or RAPL
// domains for energy events).
func (a *PerfeventAgent) Sample(metric string) (Sample, error) {
	ev, ok := a.EventForMetric(metric)
	if !ok {
		return Sample{}, fmt.Errorf("telemetry: %s does not serve %q", a.Name(), metric)
	}
	def, ok := a.m.Catalog().Lookup(ev)
	if !ok {
		return Sample{}, fmt.Errorf("telemetry: unknown event %q", ev)
	}
	var s Sample
	if def.PMU == "rapl" {
		domain := "pkg"
		if ev == pmu.RAPLEnergyDRAM {
			domain = "dram"
		}
		s = Sample{Metric: metric, Values: make(map[string]float64, len(a.sockets))}
		for _, sk := range a.sockets {
			v, err := sk.rapl.Read(domain)
			if err != nil {
				return Sample{}, err
			}
			s.Values[sk.name] = float64(v)
		}
	} else {
		s = Sample{Metric: metric, Values: make(map[string]float64, len(a.cpus))}
		for _, c := range a.cpus {
			v, err := c.pmu.Read(ev)
			if err != nil {
				return Sample{}, fmt.Errorf("telemetry: cpu%d: %w", c.id, err)
			}
			s.Values[c.name] = float64(v)
		}
	}
	a.usage.AddCPU(cpuCostPerValue * float64(len(s.Values)))
	a.m.ChargeSamplingCost(len(s.Values))
	return s, nil
}

// LinuxAgent serves kernel software metrics (pmdalinux).
type LinuxAgent struct {
	m     *machine.Machine
	usage ResourceUsage
}

// NewLinuxAgent wraps a machine.
func NewLinuxAgent(m *machine.Machine) *LinuxAgent {
	return &LinuxAgent{m: m, usage: ResourceUsage{MemoryBytes: 9 << 20}}
}

// Name implements Agent.
func (a *LinuxAgent) Name() string { return AgentLinux }

// Usage exposes resource accounting.
func (a *LinuxAgent) Usage() *ResourceUsage { return &a.usage }

// Metrics implements Agent.
func (a *LinuxAgent) Metrics() []string { return machine.SWMetricNames() }

// Sample implements Agent.
func (a *LinuxAgent) Sample(metric string) (Sample, error) {
	sw, err := a.m.SampleSW(metric)
	if err != nil {
		return Sample{}, err
	}
	s := Sample{Metric: metric, Values: make(map[string]float64, len(sw.Values))}
	for _, iv := range sw.Values {
		key := iv.Instance
		if key == "" {
			key = "value"
		}
		s.Values[key] = iv.Value
	}
	a.usage.AddCPU(cpuCostPerValue * float64(len(s.Values)))
	return s, nil
}

// ProcAgent serves per-process metrics (pmdaproc). Its larger instance
// domain gives it the bigger memory footprint Fig 6 shows ("pmdaproc uses
// more memory due to a larger instance domain").
type ProcAgent struct {
	m       *machine.Machine
	usage   ResourceUsage
	daemons []string // instance names of the fixed background population
}

// NewProcAgent wraps a machine.
func NewProcAgent(m *machine.Machine) *ProcAgent {
	a := &ProcAgent{m: m, usage: ResourceUsage{MemoryBytes: 54 << 20}}
	for i := 0; i < 140; i++ {
		a.daemons = append(a.daemons, procInstance(100+i, "daemon"+strconv.Itoa(i)))
	}
	return a
}

// procInstance names a process instance the way pmdaproc does: its
// zero-padded pid, then its command.
func procInstance(pid int, cmd string) string { return fmt.Sprintf("%06d %s", pid, cmd) }

// Name implements Agent.
func (a *ProcAgent) Name() string { return AgentProc }

// Usage exposes resource accounting.
func (a *ProcAgent) Usage() *ResourceUsage { return &a.usage }

// Proc metric names.
const (
	MetricProcRSS   = "proc.psinfo.rss"
	MetricProcUtime = "proc.psinfo.utime"
	MetricProcStime = "proc.psinfo.stime"
)

// Metrics implements Agent.
func (a *ProcAgent) Metrics() []string {
	return []string{MetricProcRSS, MetricProcStime, MetricProcUtime}
}

// Sample implements Agent. The instance domain is the set of observed
// kernel executions plus a synthetic population of OS processes.
func (a *ProcAgent) Sample(metric string) (Sample, error) {
	execs := a.m.ActiveExecutions()
	s := Sample{Metric: metric, Values: make(map[string]float64, len(execs)+len(a.daemons))}
	now := a.m.Now()
	for i, e := range execs {
		inst := procInstance(10000+i, e.Spec.Name)
		switch metric {
		case MetricProcRSS:
			s.Values[inst] = float64(e.Spec.WorkingSetBytes * int64(len(e.Pinning)))
		case MetricProcUtime:
			s.Values[inst] = (now - e.Start) * float64(len(e.Pinning)) * 0.97
		case MetricProcStime:
			s.Values[inst] = (now - e.Start) * float64(len(e.Pinning)) * 0.03
		default:
			return Sample{}, fmt.Errorf("telemetry: %s does not serve %q", a.Name(), metric)
		}
	}
	// Background OS processes: a fixed population.
	for i, inst := range a.daemons {
		switch metric {
		case MetricProcRSS:
			s.Values[inst] = float64((i%17 + 1)) * 1.5e6
		case MetricProcUtime:
			s.Values[inst] = now * 0.001
		case MetricProcStime:
			s.Values[inst] = now * 0.0005
		}
	}
	a.usage.AddCPU(cpuCostPerValue * float64(len(s.Values)))
	return s, nil
}

// PMCD is the coordinator: it owns the agents, routes metric requests and
// accounts the shipping overhead ("pmcd, which manages other agents and
// reports their readings").
type PMCD struct {
	m      *machine.Machine
	agents []Agent
	usage  ResourceUsage
	route  map[string]Agent
}

// NewPMCD builds the standard agent set for a machine.
func NewPMCD(m *machine.Machine) *PMCD {
	p := &PMCD{m: m, usage: ResourceUsage{MemoryBytes: 12 << 20}}
	p.register(NewPerfeventAgent(m))
	p.register(NewLinuxAgent(m))
	p.register(NewProcAgent(m))
	return p
}

func (p *PMCD) register(a Agent) {
	p.agents = append(p.agents, a)
	if p.route == nil {
		p.route = map[string]Agent{}
	}
	for _, mname := range a.Metrics() {
		p.route[mname] = a
	}
}

// Machine returns the underlying machine.
func (p *PMCD) Machine() *machine.Machine { return p.m }

// Agents returns the registered agents.
func (p *PMCD) Agents() []Agent { return p.agents }

// Agent returns the named agent.
func (p *PMCD) Agent(name string) (Agent, bool) {
	for _, a := range p.agents {
		if a.Name() == name {
			return a, true
		}
	}
	return nil, false
}

// Usage returns pmcd's own resource accounting.
func (p *PMCD) Usage() *ResourceUsage { return &p.usage }

// Metrics lists every metric served by any agent, sorted.
func (p *PMCD) Metrics() []string {
	var out []string
	for mname := range p.route {
		out = append(out, mname)
	}
	sort.Strings(out)
	return out
}

// Sample routes a metric request to its agent and accounts the pmcd
// forwarding cost.
func (p *PMCD) Sample(metric string) (Sample, error) {
	a, ok := p.route[metric]
	if !ok {
		return Sample{}, fmt.Errorf("telemetry: no agent serves metric %q", metric)
	}
	s, err := a.Sample(metric)
	if err != nil {
		return Sample{}, err
	}
	p.usage.AddCPU(0.5e-6 * float64(len(s.Values)))
	return s, nil
}

// wireBytes estimates the on-the-wire size of a sample report: each value
// carries its field name, a float64 rendering and framing.
func wireBytes(s Sample) int64 {
	b := int64(len(s.Metric)) + 24
	for f := range s.Values {
		b += int64(len(f)) + 28
	}
	return b
}

// ToPoint converts a sample to a tsdb point whose Fields is s.Values, not
// a copy: agents build a fresh map per Sample and nothing writes it or a
// point's Tags once offered, so points, sink and spill journal share them.
func ToPoint(s Sample, tag string, timeNanos int64) tsdb.Point {
	return tsdb.Point{Measurement: tsdb.MeasurementName(s.Metric), Tags: tagMap(tag), Fields: s.Values, Time: timeNanos}
}

// tagMap is a point's Tags under a collector tag: none for "".
func tagMap(tag string) (tags map[string]string) {
	if tag != "" {
		tags = map[string]string{"tag": tag}
	}
	return tags
}
