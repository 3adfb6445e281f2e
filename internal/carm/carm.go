// Package carm implements the Cache-Aware Roofline Model of §IV-B: model
// construction from microbenchmarks (per-level sustainable bandwidth and
// peak FP throughput, per ISA and thread count, for Intel *and* AMD
// microarchitectures), KB-backed caching of the measured roofs, and the
// live-CARM panel that converts PMU readings into (arithmetic intensity,
// GFLOPS) application points in real time.
package carm

import (
	"fmt"
	"math"
	"sort"

	"pmove/internal/kb"
	"pmove/internal/kernels"
	"pmove/internal/machine"
	"pmove/internal/topo"
)

// Roof is one measured ceiling of the model.
type Roof struct {
	// Level is the memory level for bandwidth roofs; for the compute roof
	// Level is 0 and GFLOPS is set.
	Level   topo.CacheLevel `json:"level,omitempty"`
	ISA     topo.ISA        `json:"isa"`
	Threads int             `json:"threads"`
	GBps    float64         `json:"gbps,omitempty"`
	GFLOPS  float64         `json:"gflops,omitempty"`
}

// Model is a constructed CARM for one system / ISA / thread count.
type Model struct {
	Host    string   `json:"host"`
	ISA     topo.ISA `json:"isa"`
	Threads int      `json:"threads"`
	// MemGBps maps each memory level to its sustainable bandwidth.
	MemGBps map[topo.CacheLevel]float64 `json:"mem_gbps"`
	// PeakGFLOPS is the measured FP ceiling.
	PeakGFLOPS float64 `json:"peak_gflops"`
}

// Validate checks model consistency: bandwidths must decrease outward.
func (m *Model) Validate() error {
	if m.PeakGFLOPS <= 0 {
		return fmt.Errorf("carm: model %s/%s has no compute roof", m.Host, m.ISA)
	}
	if len(m.MemGBps) == 0 {
		return fmt.Errorf("carm: model %s/%s has no memory roofs", m.Host, m.ISA)
	}
	prev := math.Inf(1)
	for _, lvl := range []topo.CacheLevel{topo.L1, topo.L2, topo.L3, topo.DRAM} {
		bw, ok := m.MemGBps[lvl]
		if !ok {
			continue
		}
		if bw <= 0 {
			return fmt.Errorf("carm: model %s/%s has non-positive %s bandwidth", m.Host, m.ISA, lvl)
		}
		if bw > prev*1.001 {
			return fmt.Errorf("carm: model %s/%s: %s bandwidth %.1f exceeds inner level %.1f", m.Host, m.ISA, lvl, bw, prev)
		}
		prev = bw
	}
	return nil
}

// RoofAt returns the attainable GFLOPS at arithmetic intensity ai for a
// memory level: min(peak, ai * BW).
func (m *Model) RoofAt(lvl topo.CacheLevel, ai float64) (float64, error) {
	bw, ok := m.MemGBps[lvl]
	if !ok {
		return 0, fmt.Errorf("carm: model has no %s roof", lvl)
	}
	return math.Min(m.PeakGFLOPS, ai*bw), nil
}

// RidgeAI returns the arithmetic intensity where a memory roof meets the
// compute roof (the model's "ridge point" for that level).
func (m *Model) RidgeAI(lvl topo.CacheLevel) (float64, error) {
	bw, ok := m.MemGBps[lvl]
	if !ok || bw <= 0 {
		return 0, fmt.Errorf("carm: model has no %s roof", lvl)
	}
	return m.PeakGFLOPS / bw, nil
}

// BoundingLevel returns the outermost memory level whose roof a point
// (ai, gflops) stays under — i.e. which roof currently bounds the
// application (Fig 9's "approaches the L2 roof" style statements).
func (m *Model) BoundingLevel(ai, gflops float64) topo.CacheLevel {
	levels := []topo.CacheLevel{topo.DRAM, topo.L3, topo.L2, topo.L1}
	for _, lvl := range levels {
		if bw, ok := m.MemGBps[lvl]; ok {
			// A small tolerance absorbs PMU measurement noise on points
			// that ride exactly on a roof.
			if gflops <= math.Min(m.PeakGFLOPS, ai*bw)*1.03 {
				return lvl
			}
		}
	}
	return topo.L1
}

// Construct measures the CARM roofs by running the auto-configured
// microbenchmark suite on the machine with the given thread count. The
// Time Stamp Counter role of §IV-B1 is played by the machine's virtual
// clock: GB/s and GFLOPS derive from cycle-accurate virtual durations.
func Construct(m *machine.Machine, isa topo.ISA, threads int, pin topo.PinStrategy) (*Model, error) {
	sys := m.System()
	if !sys.CPU.HasISA(isa) {
		return nil, fmt.Errorf("carm: %s does not support %s", sys.Hostname, isa)
	}
	pinning, err := topo.Pin(sys, pin, threads)
	if err != nil {
		return nil, err
	}
	suite, err := kernels.CARMSuite(sys, []topo.ISA{isa})
	if err != nil {
		return nil, err
	}
	model := &Model{Host: sys.Hostname, ISA: isa, Threads: threads, MemGBps: map[topo.CacheLevel]float64{}}
	for _, b := range suite {
		exec, err := m.Run(b.Spec, pinning)
		if err != nil {
			return nil, fmt.Errorf("carm: %s: %w", b.Name, err)
		}
		if b.Flops {
			if exec.GFLOPS > model.PeakGFLOPS {
				model.PeakGFLOPS = exec.GFLOPS
			}
		} else {
			if exec.GBps > model.MemGBps[b.Level] {
				model.MemGBps[b.Level] = exec.GBps
			}
		}
	}
	// Monotonise outward: a shared L3 probed with few threads can appear
	// slower than DRAM with aggregate traffic; clamp to preserve the
	// roofline ordering L1 >= L2 >= L3 >= DRAM.
	order := []topo.CacheLevel{topo.L1, topo.L2, topo.L3, topo.DRAM}
	prev := math.Inf(1)
	for _, lvl := range order {
		if bw, ok := model.MemGBps[lvl]; ok {
			if bw > prev {
				model.MemGBps[lvl] = prev
			}
			prev = model.MemGBps[lvl]
		}
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return model, nil
}

// ToBenchmark serialises the model as a KB BenchmarkInterface entry, so
// the CARM plot can be re-constructed "without the need to re-run all the
// microbenchmarks".
func (m *Model) ToBenchmark(id string, startNs, endNs int64) *kb.Benchmark {
	b := &kb.Benchmark{
		ID: id, Type: "BenchmarkInterface", Host: m.Host, Name: "carm",
		StartNanos: startNs, EndNanos: endNs,
	}
	params := func(extra map[string]string) map[string]string {
		p := map[string]string{
			"isa":     string(m.ISA),
			"threads": fmt.Sprintf("%d", m.Threads),
		}
		for k, v := range extra {
			p[k] = v
		}
		return p
	}
	var levels []topo.CacheLevel
	for lvl := range m.MemGBps {
		levels = append(levels, lvl)
	}
	sort.Slice(levels, func(i, j int) bool { return levels[i] < levels[j] })
	for _, lvl := range levels {
		b.Results = append(b.Results, kb.BenchmarkResult{
			Metric: "bandwidth", Value: m.MemGBps[lvl], Unit: "GB/s",
			Params: params(map[string]string{"level": lvl.String()}),
		})
	}
	b.Results = append(b.Results, kb.BenchmarkResult{
		Metric: "peak_flops", Value: m.PeakGFLOPS, Unit: "GFLOP/s",
		Params: params(nil),
	})
	return b
}

// FromBenchmark reconstructs a model from a KB entry written by
// ToBenchmark.
func FromBenchmark(b *kb.Benchmark) (*Model, error) {
	if b.Name != "carm" {
		return nil, fmt.Errorf("carm: benchmark entry %s is %q, not carm", b.ID, b.Name)
	}
	m := &Model{Host: b.Host, MemGBps: map[topo.CacheLevel]float64{}}
	for _, r := range b.Results {
		if m.ISA == "" {
			m.ISA = topo.ISA(r.Params["isa"])
			fmt.Sscanf(r.Params["threads"], "%d", &m.Threads)
		}
		switch r.Metric {
		case "bandwidth":
			lvl, err := parseLevel(r.Params["level"])
			if err != nil {
				return nil, err
			}
			m.MemGBps[lvl] = r.Value
		case "peak_flops":
			m.PeakGFLOPS = r.Value
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

func parseLevel(s string) (topo.CacheLevel, error) {
	switch s {
	case "L1":
		return topo.L1, nil
	case "L2":
		return topo.L2, nil
	case "L3":
		return topo.L3, nil
	case "DRAM":
		return topo.DRAM, nil
	}
	return 0, fmt.Errorf("carm: unknown memory level %q", s)
}
