package machine

import (
	"fmt"
	"sort"
)

// SWTelemetry names, following PCP's metric namespace (paper Listing 3
// queries kernel.percpu.cpu.idle and mem.numa.alloc_hit).
const (
	MetricCPUIdle      = "kernel.percpu.cpu.idle" // per hardware thread, fraction [0,1]
	MetricCPUUser      = "kernel.percpu.cpu.user"
	MetricMemUsed      = "mem.util.used" // bytes
	MetricMemFree      = "mem.util.free"
	MetricNUMAAllocHit = "mem.numa.alloc_hit" // per NUMA node, pages/sec
	MetricLoadAvg      = "kernel.all.load"
	MetricNProcs       = "kernel.all.nprocs"
	MetricDiskWrites   = "disk.all.write_bytes" // bytes/sec
	MetricNetOut       = "network.interface.out.bytes"
)

// InstanceValue is one (instance, value) pair of an instance-domain metric,
// e.g. ("_cpu0", 0.97) for kernel.percpu.cpu.idle.
type InstanceValue struct {
	Instance string
	Value    float64
}

// SWSample is a snapshot of one software metric across its instance domain.
type SWSample struct {
	Metric string
	Values []InstanceValue
}

// SWMetricNames returns all software metrics the machine exports, sorted.
func SWMetricNames() []string {
	names := []string{
		MetricCPUIdle, MetricCPUUser, MetricMemUsed, MetricMemFree,
		MetricNUMAAllocHit, MetricLoadAvg, MetricNProcs, MetricDiskWrites,
		MetricNetOut,
	}
	sort.Strings(names)
	return names
}

// SampleSW reads the current value of a software metric across its
// instance domain. Values are derived from the machine's activity: busy
// hardware threads report low idle fractions, memory usage follows the
// working sets of active executions, NUMA hit rates follow their pinning.
func (m *Machine) SampleSW(metric string) (SWSample, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	busy := map[int]float64{} // hw thread -> utilisation
	var wssTotal int64
	numaTraffic := map[int]float64{}
	for _, e := range m.active {
		for _, hw := range e.Pinning {
			busy[hw] = 1.0
		}
		wssTotal += e.Spec.WorkingSetBytes * int64(len(e.Pinning))
		bytesPerSec := e.GBps * 1e9
		for _, hw := range e.Pinning {
			nd := m.sys.NUMAOf(m.coreOf(hw))
			if nd >= 0 {
				numaTraffic[nd] += bytesPerSec / float64(len(e.Pinning))
			}
		}
	}

	switch metric {
	case MetricCPUIdle, MetricCPUUser:
		s := SWSample{Metric: metric, Values: make([]InstanceValue, 0, len(m.cpuIDs))}
		for i, id := range m.cpuIDs {
			util := busy[id]
			// Baseline OS noise keeps idle just under 1.
			util += 0.01
			if util > 1 {
				util = 1
			}
			v := util
			if metric == MetricCPUIdle {
				v = 1 - util
			}
			s.Values = append(s.Values, InstanceValue{Instance: m.cpuNames[i], Value: v})
		}
		return s, nil
	case MetricMemUsed, MetricMemFree:
		base := float64(m.sys.Memory.TotalBytes) * 0.03 // OS footprint
		used := base + float64(wssTotal)
		if used > float64(m.sys.Memory.TotalBytes) {
			used = float64(m.sys.Memory.TotalBytes)
		}
		v := used
		if metric == MetricMemFree {
			v = float64(m.sys.Memory.TotalBytes) - used
		}
		return SWSample{Metric: metric, Values: []InstanceValue{{Instance: "", Value: v}}}, nil
	case MetricNUMAAllocHit:
		s := SWSample{Metric: metric, Values: make([]InstanceValue, 0, len(m.nodeNames))}
		for i, n := range m.sys.NUMA {
			pages := numaTraffic[n.ID] / 4096
			s.Values = append(s.Values, InstanceValue{Instance: m.nodeNames[i], Value: pages})
		}
		return s, nil
	case MetricLoadAvg:
		load := 0.0
		for _, u := range busy {
			load += u
		}
		return SWSample{Metric: metric, Values: []InstanceValue{{Instance: "1 minute", Value: load}}}, nil
	case MetricNProcs:
		n := 140 + len(m.active) // OS daemons + observed kernels
		return SWSample{Metric: metric, Values: []InstanceValue{{Instance: "", Value: float64(n)}}}, nil
	case MetricDiskWrites:
		v := 0.0
		for _, tr := range numaTraffic {
			v += tr * 0.001 // page-cache writeback trickle
		}
		return SWSample{Metric: metric, Values: []InstanceValue{{Instance: "", Value: v}}}, nil
	case MetricNetOut:
		s := SWSample{Metric: metric}
		for _, nic := range m.sys.NICs {
			s.Values = append(s.Values, InstanceValue{Instance: nic.Name, Value: 1200}) // keepalive chatter
		}
		return s, nil
	}
	return SWSample{}, fmt.Errorf("machine: unknown software metric %q", metric)
}

// InstanceDomainSize returns the number of instances a metric reports,
// which determines data points per report (Table III's #mt × domain).
func (m *Machine) InstanceDomainSize(metric string) int {
	s, err := m.SampleSW(metric)
	if err != nil {
		// Hardware counter metrics report one value per hardware thread.
		return m.sys.NumThreads()
	}
	return len(s.Values)
}
