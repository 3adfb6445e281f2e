// Package topo models the hardware topology of an HPC system and provides
// the probing machinery that P-MoVE runs on a target to discover it.
//
// On a real deployment P-MoVE shells out to lshw, likwid-topology, the cpuid
// instruction, /sys/block and smartctl (paper §III-C). This reproduction is
// self-contained: the same information is synthesised from a System value,
// and Probe serialises it into the probe JSON document that is copied back
// to the host (Figure 3, steps ①-②). Presets for the four evaluation
// platforms of Table II (skx, icl, csl, zen3) are provided by presets.go.
package topo

import (
	"fmt"
	"slices"
)

// Vendor identifies a CPU vendor. The abstraction layer keys its event
// mappings on (vendor, microarchitecture).
type Vendor string

// Supported vendors.
const (
	VendorIntel Vendor = "intel"
	VendorAMD   Vendor = "amd"
)

// ISA is an instruction-set extension relevant for FLOP accounting.
type ISA string

// ISA extensions recognised by the CARM microbenchmarks and the machine
// execution engine. Wider vectors do more FLOPs (and move more bytes) per
// instruction.
const (
	ISAScalar ISA = "scalar"
	ISASSE    ISA = "sse"
	ISAAVX2   ISA = "avx2"
	ISAAVX512 ISA = "avx512"
)

// VectorWidth returns the number of float64 lanes of the extension.
func (i ISA) VectorWidth() int {
	switch i {
	case ISASSE:
		return 2
	case ISAAVX2:
		return 4
	case ISAAVX512:
		return 8
	default:
		return 1
	}
}

// CacheLevel identifies a level of the memory hierarchy, with DRAM as the
// terminal "level" used by the roofline machinery.
type CacheLevel int

// Memory hierarchy levels.
const (
	L1 CacheLevel = iota + 1
	L2
	L3
	DRAM
)

func (c CacheLevel) String() string {
	switch c {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case DRAM:
		return "DRAM"
	}
	return fmt.Sprintf("CacheLevel(%d)", int(c))
}

// Cache describes one cache in the hierarchy.
type Cache struct {
	Level      CacheLevel `json:"level"`
	SizeBytes  int64      `json:"size_bytes"`
	LineBytes  int        `json:"line_bytes"`
	Shared     bool       `json:"shared"`     // shared across the socket (e.g. L3)
	Inclusive  bool       `json:"inclusive"`  // inclusive of lower levels
	Assoc      int        `json:"assoc"`      // set associativity
	LatencyCyc int        `json:"latency_cy"` // load-to-use latency in cycles
	// BWBytesPerCycPerCore is the sustainable per-core bandwidth used by
	// the analytic execution model, in bytes per cycle.
	BWBytesPerCycPerCore float64 `json:"bw_bytes_per_cycle_per_core"`
}

// Thread is a hardware thread (SMT context).
type Thread struct {
	ID     int `json:"id"`      // global hardware thread id (OS CPU number)
	CoreID int `json:"core_id"` // global core id
}

// Core is a physical core holding one or more hardware threads.
type Core struct {
	ID       int      `json:"id"`
	SocketID int      `json:"socket_id"`
	NUMAID   int      `json:"numa_id"`
	Threads  []Thread `json:"threads"`
}

// Socket is a CPU package.
type Socket struct {
	ID    int    `json:"id"`
	Cores []Core `json:"cores"`
}

// NUMANode groups cores with a local memory region.
type NUMANode struct {
	ID          int   `json:"id"`
	MemoryBytes int64 `json:"memory_bytes"`
	CoreIDs     []int `json:"core_ids"`
}

// Disk is a block device discovered from /sys/block and SMART.
type Disk struct {
	Name       string `json:"name"`
	Model      string `json:"model"`
	SizeBytes  int64  `json:"size_bytes"`
	Rotational bool   `json:"rotational"`
	SMARTOK    bool   `json:"smart_ok"`
}

// NIC is a network interface.
type NIC struct {
	Name      string `json:"name"`
	SpeedMbps int    `json:"speed_mbps"`
	Address   string `json:"address"`
}

// GPU describes an accelerator device, probed in the real system via
// nvidia-smi, /sys/class/drm and DeviceQuery (paper §III-D).
type GPU struct {
	ID            int    `json:"id"`
	Model         string `json:"model"`
	MemoryMB      int64  `json:"memory_mb"`
	SMs           int    `json:"sms"`
	SharedKBPerSM int    `json:"shared_kb_per_sm"`
	L2KB          int64  `json:"l2_kb"`
	NUMANode      int    `json:"numa_node"`
	BusID         string `json:"bus_id"`
}

// CPUSpec captures the per-socket CPU silicon parameters used both for the
// KB (machine specification) and the analytic execution model.
type CPUSpec struct {
	Model          string  `json:"model"`
	Vendor         Vendor  `json:"vendor"`
	Microarch      string  `json:"microarch"` // abstraction-layer key, e.g. "skx", "zen3"
	BaseGHz        float64 `json:"base_ghz"`
	TurboGHz       float64 `json:"turbo_ghz"`
	CoresPerSocket int     `json:"cores_per_socket"`
	ThreadsPerCore int     `json:"threads_per_core"`
	ISAs           []ISA   `json:"isas"`
	// FMA units per core; peak FLOPs/cycle = 2 (FMA) * width * FMAUnits.
	FMAUnits int `json:"fma_units"`
	// TDPWatts is the package thermal design power, anchoring the RAPL model.
	TDPWatts float64 `json:"tdp_watts"`
	// IdleWatts is package power with no activity.
	IdleWatts float64 `json:"idle_watts"`
}

// HasISA reports whether the CPU supports the extension.
func (c *CPUSpec) HasISA(isa ISA) bool {
	for _, i := range c.ISAs {
		if i == isa {
			return true
		}
	}
	return false
}

// WidestISA returns the widest supported vector extension.
func (c *CPUSpec) WidestISA() ISA {
	best := ISAScalar
	for _, i := range c.ISAs {
		if i.VectorWidth() > best.VectorWidth() {
			best = i
		}
	}
	return best
}

// MemSpec describes the DRAM configuration.
type MemSpec struct {
	TotalBytes int64  `json:"total_bytes"`
	Type       string `json:"type"` // e.g. "DDR4"
	MHz        int    `json:"mhz"`
	Channels   int    `json:"channels"`
	// BWBytesPerCycPerCore is sustainable DRAM bandwidth per core in
	// bytes/cycle; the socket aggregate saturates at SocketBWGBs.
	BWBytesPerCycPerCore float64 `json:"bw_bytes_per_cycle_per_core"`
	SocketBWGBs          float64 `json:"socket_bw_gbs"`
}

// OSInfo mirrors what lshw/uname report.
type OSInfo struct {
	Name   string `json:"name"`
	Kernel string `json:"kernel"`
	Arch   string `json:"arch"`
}

// System is the complete description of one target machine. It is the root
// of the probe document and, on the host, the root of the Knowledge Base.
type System struct {
	Hostname string     `json:"hostname"`
	OS       OSInfo     `json:"os"`
	CPU      CPUSpec    `json:"cpu"`
	Memory   MemSpec    `json:"memory"`
	Sockets  []Socket   `json:"sockets"`
	NUMA     []NUMANode `json:"numa"`
	Caches   []Cache    `json:"caches"` // per-core L1/L2 and per-socket L3
	Disks    []Disk     `json:"disks"`
	NICs     []NIC      `json:"nics"`
	GPUs     []GPU      `json:"gpus"`
	// Env captures tool/framework configuration on the target (paper: KB
	// stores configuration parameters of tools/frameworks).
	Env map[string]string `json:"env,omitempty"`
}

// NumSockets returns the socket count.
func (s *System) NumSockets() int { return len(s.Sockets) }

// NumCores returns the total physical core count.
func (s *System) NumCores() int {
	n := 0
	for _, sk := range s.Sockets {
		n += len(sk.Cores)
	}
	return n
}

// NumThreads returns the total hardware thread count (the instance-domain
// size of per-CPU metrics; this drives the Table III loss behaviour).
func (s *System) NumThreads() int {
	n := 0
	for _, sk := range s.Sockets {
		for _, c := range sk.Cores {
			n += len(c.Threads)
		}
	}
	return n
}

// AllThreads returns every hardware thread ordered by global thread id.
// Sockets, cores and threads built in id order — every preset without
// SMT, every probe — are already so, and are not sorted again.
func (s *System) AllThreads() []Thread {
	ts := make([]Thread, 0, s.NumThreads())
	for _, sk := range s.Sockets {
		for _, c := range sk.Cores {
			ts = append(ts, c.Threads...)
		}
	}
	byID := func(a, b Thread) int { return a.ID - b.ID }
	if !slices.IsSortedFunc(ts, byID) {
		slices.SortFunc(ts, byID)
	}
	return ts
}

// AllCores returns every core ordered by global core id, sorting only a
// system whose sockets do not list them so.
func (s *System) AllCores() []Core {
	cs := make([]Core, 0, s.NumCores())
	for _, sk := range s.Sockets {
		cs = append(cs, sk.Cores...)
	}
	byID := func(a, b Core) int { return a.ID - b.ID }
	if !slices.IsSortedFunc(cs, byID) {
		slices.SortFunc(cs, byID)
	}
	return cs
}

// Cache returns the cache descriptor for a level, or false if the level is
// not present (DRAM is never in Caches; it is described by Memory).
func (s *System) Cache(level CacheLevel) (Cache, bool) {
	for _, c := range s.Caches {
		if c.Level == level {
			return c, true
		}
	}
	return Cache{}, false
}

// CacheLevelFor returns the innermost memory level whose capacity holds a
// working set of wssBytes for a single thread, following the containment
// rule the CARM microbenchmarks use (paper §IV-B1).
func (s *System) CacheLevelFor(wssBytes int64) CacheLevel {
	for _, lvl := range []CacheLevel{L1, L2, L3} {
		c, ok := s.Cache(lvl)
		if !ok {
			continue
		}
		size := c.SizeBytes
		if c.Shared {
			// A shared cache is probed per-socket.
			size = c.SizeBytes
		}
		if wssBytes <= size {
			return lvl
		}
	}
	return DRAM
}

// NUMAOf returns the NUMA node id owning the core, or -1.
func (s *System) NUMAOf(coreID int) int {
	for _, n := range s.NUMA {
		for _, id := range n.CoreIDs {
			if id == coreID {
				return n.ID
			}
		}
	}
	return -1
}

// Validate checks structural invariants of the topology: unique ids,
// consistent core/thread cross-references and NUMA coverage.
func (s *System) Validate() error {
	if s.Hostname == "" {
		return fmt.Errorf("topo: system has no hostname")
	}
	if len(s.Sockets) == 0 {
		return fmt.Errorf("topo: system %s has no sockets", s.Hostname)
	}
	coreIDs := map[int]bool{}
	threadIDs := map[int]bool{}
	for _, sk := range s.Sockets {
		if len(sk.Cores) == 0 {
			return fmt.Errorf("topo: socket %d has no cores", sk.ID)
		}
		for _, c := range sk.Cores {
			if c.SocketID != sk.ID {
				return fmt.Errorf("topo: core %d claims socket %d but lives in socket %d", c.ID, c.SocketID, sk.ID)
			}
			if coreIDs[c.ID] {
				return fmt.Errorf("topo: duplicate core id %d", c.ID)
			}
			coreIDs[c.ID] = true
			if len(c.Threads) == 0 {
				return fmt.Errorf("topo: core %d has no threads", c.ID)
			}
			for _, t := range c.Threads {
				if t.CoreID != c.ID {
					return fmt.Errorf("topo: thread %d claims core %d but lives in core %d", t.ID, t.CoreID, c.ID)
				}
				if threadIDs[t.ID] {
					return fmt.Errorf("topo: duplicate thread id %d", t.ID)
				}
				threadIDs[t.ID] = true
			}
		}
	}
	for _, n := range s.NUMA {
		for _, id := range n.CoreIDs {
			if !coreIDs[id] {
				return fmt.Errorf("topo: NUMA node %d references unknown core %d", n.ID, id)
			}
		}
	}
	for _, c := range s.Caches {
		if c.SizeBytes <= 0 {
			return fmt.Errorf("topo: cache %s has non-positive size", c.Level)
		}
		if c.LineBytes <= 0 {
			return fmt.Errorf("topo: cache %s has non-positive line size", c.Level)
		}
	}
	return nil
}

// PeakGFLOPS returns the theoretical peak double-precision GFLOP/s of the
// whole system for the given ISA and thread count (threads beyond the
// physical core count contribute no extra FLOPs: SMT shares FMA units).
func (s *System) PeakGFLOPS(isa ISA, threads int) float64 {
	cores := threads
	if cores > s.NumCores() {
		cores = s.NumCores()
	}
	flopsPerCyc := 2.0 * float64(isa.VectorWidth()) * float64(s.CPU.FMAUnits)
	return flopsPerCyc * s.CPU.BaseGHz * float64(cores)
}
