// Package machine is the analytic execution engine standing in for the
// physical servers of Table II. It advances a virtual clock, runs workload
// specifications under a roofline-style timing model, deposits ground-truth
// PMU events on per-thread counter files, accumulates RAPL energy, and
// exposes software telemetry (CPU utilisation, memory, NUMA statistics)
// for the PCP-like agents to sample.
//
// Time is virtual: experiments that take minutes of wall time in the paper
// replay in milliseconds, while sampling, losses and overhead retain the
// same relationships to frequency and instance-domain size.
package machine

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"pmove/internal/pmu"
	"pmove/internal/topo"
)

// Machine binds a topology to PMU state and a virtual clock.
type Machine struct {
	mu  sync.Mutex
	sys *topo.System
	cat *pmu.Catalog

	now     float64 // virtual seconds since machine start
	threads map[int]*pmu.ThreadPMU
	rapl    map[int]*pmu.RAPL // per socket

	// The instance domains of the per-CPU and per-NUMA-node software
	// metrics, resolved once: hardware thread ids in id order with their
	// "_cpuN" names beside them, and the "_nodeN" names of sys.NUMA.
	cpuIDs    []int
	cpuNames  []string
	nodeNames []string

	active []*Execution
	done   []*Execution

	noise *pmu.NoiseModel

	// Baseline activity (an "empty" system still retires instructions).
	baselineCyclesPerSec float64
	baselineInstrPerSec  float64

	// Sampling overhead: each counter read steals a few microseconds of
	// target CPU (paper §V-C measures ~0.01% overhead). Interference is
	// modelled by extending active executions' durations.
	readCostSec float64
	// interference jitter source
	seq uint64
}

// Config tunes the machine model.
type Config struct {
	// Seed drives the PMU noise model and run-to-run variance. Machines
	// with the same seed replay identically.
	Seed uint64
	// Noiseless disables PMU read noise (ground-truth configuration).
	Noiseless bool
	// ReadCostMicros is the per-counter-read CPU cost in microseconds.
	// Zero selects the default (2µs).
	ReadCostMicros float64
}

// New builds a machine for a system.
func New(sys *topo.System, cfg Config) (*Machine, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	cat, err := pmu.CatalogFor(sys.CPU.Microarch)
	if err != nil {
		return nil, err
	}
	var noise *pmu.NoiseModel
	if cfg.Noiseless {
		noise = pmu.Noiseless()
	} else {
		noise = pmu.NewNoiseModel(cfg.Seed)
	}
	readCost := cfg.ReadCostMicros
	if readCost == 0 {
		readCost = 2.0
	}
	m := &Machine{
		sys:     sys,
		cat:     cat,
		threads: make(map[int]*pmu.ThreadPMU),
		rapl:    make(map[int]*pmu.RAPL),
		noise:   noise,

		baselineCyclesPerSec: sys.CPU.BaseGHz * 1e9 * 0.01, // ~1% residency when idle
		baselineInstrPerSec:  sys.CPU.BaseGHz * 1e9 * 0.004,
		readCostSec:          readCost * 1e-6,
		seq:                  cfg.Seed,
	}
	smt := sys.CPU.ThreadsPerCore > 1
	for _, t := range sys.AllThreads() {
		m.threads[t.ID] = pmu.NewThreadPMU(cat, smt, noise)
		m.cpuIDs = append(m.cpuIDs, t.ID)
		m.cpuNames = append(m.cpuNames, fmt.Sprintf("_cpu%d", t.ID))
	}
	for _, n := range sys.NUMA {
		m.nodeNames = append(m.nodeNames, fmt.Sprintf("_node%d", n.ID))
	}
	for _, sk := range sys.Sockets {
		r := pmu.NewRAPL(noise)
		// Domains exist from power-on; they accumulate from zero.
		r.AddMicrojoules("pkg", 0)
		if sys.CPU.Vendor == topo.VendorAMD {
			r.AddMicrojoules("dram", 0)
		}
		m.rapl[sk.ID] = r
	}
	return m, nil
}

// System returns the underlying topology.
func (m *Machine) System() *topo.System { return m.sys }

// Catalog returns the PMU event catalog of the machine's CPU.
func (m *Machine) Catalog() *pmu.Catalog { return m.cat }

// Now returns the current virtual time in seconds.
func (m *Machine) Now() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// ThreadPMU returns the counter file of a hardware thread.
func (m *Machine) ThreadPMU(hwThread int) (*pmu.ThreadPMU, error) {
	t, ok := m.threads[hwThread]
	if !ok {
		return nil, fmt.Errorf("machine: no hardware thread %d", hwThread)
	}
	return t, nil
}

// RAPL returns the energy counters of a socket.
func (m *Machine) RAPL(socket int) (*pmu.RAPL, error) {
	r, ok := m.rapl[socket]
	if !ok {
		return nil, fmt.Errorf("machine: no socket %d", socket)
	}
	return r, nil
}

// ProgramAll programs the same event list on every hardware thread.
func (m *Machine) ProgramAll(events []string) error {
	for id, t := range m.threads {
		if err := t.Program(events); err != nil {
			return fmt.Errorf("machine: thread %d: %w", id, err)
		}
	}
	return nil
}

// frequency models DVFS: few active cores run at turbo, a fully loaded
// machine at base clock.
func (m *Machine) frequency(activeCores int) float64 {
	c := m.sys.CPU
	if activeCores <= 0 {
		return c.BaseGHz
	}
	frac := float64(activeCores) / float64(m.sys.NumCores())
	if frac > 1 {
		frac = 1
	}
	return c.TurboGHz - (c.TurboGHz-c.BaseGHz)*frac
}

// socketOf maps a hardware thread to its socket.
func (m *Machine) socketOf(hwThread int) int {
	for _, sk := range m.sys.Sockets {
		for _, c := range sk.Cores {
			for _, t := range c.Threads {
				if t.ID == hwThread {
					return sk.ID
				}
			}
		}
	}
	return -1
}

func (m *Machine) coreOf(hwThread int) int {
	for _, sk := range m.sys.Sockets {
		for _, c := range sk.Cores {
			for _, t := range c.Threads {
				if t.ID == hwThread {
					return c.ID
				}
			}
		}
	}
	return -1
}

// Launch starts a workload pinned to the given hardware threads and
// returns its execution handle. Time does not advance; use AdvanceTo/Wait.
func (m *Machine) Launch(spec WorkloadSpec, pinning []int) (*Execution, error) {
	return m.LaunchSkewed(spec, pinning, nil)
}

// LaunchSkewed starts a workload whose per-thread work is scaled by
// factors (one per pinned thread; nil means uniform). A barrier at the
// end makes the slowest thread set the wall time while light threads
// produce proportionally fewer events — the load-imbalance signature the
// paper's introduction cites as a dominant variability source and that
// the anomaly package's Imbalance detector recognises.
func (m *Machine) LaunchSkewed(spec WorkloadSpec, pinning []int, factors []float64) (*Execution, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(pinning) == 0 {
		return nil, fmt.Errorf("machine: launch %s: empty pinning", spec.Name)
	}
	seen := map[int]bool{}
	for _, hw := range pinning {
		if _, ok := m.threads[hw]; !ok {
			return nil, fmt.Errorf("machine: launch %s: no hardware thread %d", spec.Name, hw)
		}
		if seen[hw] {
			return nil, fmt.Errorf("machine: launch %s: hardware thread %d pinned twice", spec.Name, hw)
		}
		seen[hw] = true
	}

	m.mu.Lock()
	defer m.mu.Unlock()

	// Distinct cores in use (SMT siblings share execution resources).
	coreSet := map[int]bool{}
	sockCores := map[int]map[int]bool{}
	for _, hw := range pinning {
		c := m.coreOf(hw)
		coreSet[c] = true
		s := m.socketOf(hw)
		if sockCores[s] == nil {
			sockCores[s] = map[int]bool{}
		}
		sockCores[s][c] = true
	}
	activeCores := len(coreSet)
	freq := m.frequency(activeCores)

	hits := spec.hitFractions(m.sys)

	// Per-core effective time per iteration, in cycles.
	computeCyc := 0.0
	fpTotal := 0.0
	for _, instr := range spec.FPInstr {
		fpTotal += instr
	}
	// FP issue throughput: FMAUnits vector pipes per core.
	if m.sys.CPU.FMAUnits > 0 {
		computeCyc = fpTotal / float64(m.sys.CPU.FMAUnits)
	}
	// Non-FP instructions issue 4-wide.
	computeCyc += spec.OtherInstr / 4.0
	// Divides are long-latency and unpipelined.
	computeCyc += spec.DivOps * 4.0

	bytesPerIter := spec.BytesPerIter()
	memCyc := 0.0
	smtPerCore := float64(len(pinning)) / float64(activeCores)
	for lvl, frac := range hits {
		if frac == 0 {
			continue
		}
		var bw float64
		if lvl == topo.DRAM {
			bw = m.sys.Memory.BWBytesPerCycPerCore
			// Socket-level saturation: aggregate DRAM bandwidth is capped.
			for s, cores := range sockCores {
				_ = s
				agg := m.sys.Memory.SocketBWGBs * 1e9 / (freq * 1e9) // bytes/cycle aggregate
				per := agg / float64(len(cores))
				if per < bw {
					bw = per
				}
			}
		} else if c, ok := m.sys.Cache(lvl); ok {
			bw = c.BWBytesPerCycPerCore
		} else {
			bw = m.sys.Memory.BWBytesPerCycPerCore
		}
		if bw <= 0 {
			return nil, fmt.Errorf("machine: launch %s: level %s has no bandwidth", spec.Name, lvl)
		}
		memCyc += bytesPerIter * frac / bw
	}
	// Memory instructions are also bounded by the core's load/store issue
	// width (~2 loads + 1 store per cycle), which is what starves scalar
	// codes even when cache bandwidth is ample.
	memIssueCyc := (spec.Loads + spec.Stores) / 3.0
	// SMT siblings share core bandwidth and pipes.
	cyclesPerIter := math.Max(math.Max(computeCyc, memCyc), memIssueCyc) * smtPerCore
	if cyclesPerIter <= 0 {
		cyclesPerIter = spec.InstrPerIter() / 4.0 * smtPerCore
		if cyclesPerIter <= 0 {
			return nil, fmt.Errorf("machine: launch %s: zero work per iteration", spec.Name)
		}
	}
	// Per-thread work skew: the slowest thread sets the wall time.
	if factors != nil && len(factors) != len(pinning) {
		return nil, fmt.Errorf("machine: launch %s: %d work factors for %d threads", spec.Name, len(factors), len(pinning))
	}
	maxFactor := 1.0
	for _, f := range factors {
		if f <= 0 {
			return nil, fmt.Errorf("machine: launch %s: non-positive work factor %g", spec.Name, f)
		}
		if f > maxFactor {
			maxFactor = f
		}
	}
	totalCycles := cyclesPerIter * float64(spec.Iters) * maxFactor
	duration := totalCycles / (freq * 1e9)

	// Run-to-run variance: real kernels vary between repetitions (this is
	// what makes some Fig 5 overheads negative). ±0.3% deterministic noise.
	m.seq++
	u := float64((splitmix(m.seq)>>11))/float64(1<<53)*2 - 1
	duration *= 1 + u*0.003

	exec := &Execution{
		Spec:            spec,
		Pinning:         append([]int(nil), pinning...),
		Start:           m.now,
		Duration:        duration,
		rates:           make([]map[string]float64, len(pinning)),
		deposited:       make([]map[string]float64, len(pinning)),
		socketPower:     map[int]float64{},
		FreqGHz:         freq,
		CyclesPerThread: totalCycles,
	}

	// Event rates per thread (events/second). A skewed thread performs
	// factor_i x the base iterations, smeared over the shared (barrier)
	// duration.
	perSec := 1 / duration
	for i := range pinning {
		f := 1.0
		if factors != nil {
			f = factors[i]
		}
		r := map[string]float64{}
		it := float64(spec.Iters) * f * perSec // iterations per second
		m.depositRates(r, spec, it, totalCycles*perSec*f/maxFactor, hits)
		exec.rates[i] = r
		exec.deposited[i] = map[string]float64{}
	}

	// Power: idle is accounted separately by socket baseline; an execution
	// adds dynamic power proportional to issue intensity and DRAM traffic.
	ipc := spec.InstrPerIter() / cyclesPerIter
	for s, cores := range sockCores {
		frac := float64(len(cores)) / float64(m.sys.CPU.CoresPerSocket)
		dyn := (m.sys.CPU.TDPWatts - m.sys.CPU.IdleWatts) * frac * math.Min(1, 0.35+0.22*ipc)
		exec.socketPower[s] = dyn
	}

	workUnits := float64(len(pinning))
	if factors != nil {
		workUnits = 0
		for _, f := range factors {
			workUnits += f
		}
	}
	exec.AI = spec.ArithmeticIntensity()
	exec.GFLOPS = spec.FlopsPerIter() * float64(spec.Iters) * workUnits / duration / 1e9
	exec.GBps = bytesPerIter * float64(spec.Iters) * workUnits / duration / 1e9

	m.active = append(m.active, exec)
	return exec, nil
}

// depositRates fills r with events/second given iterations/second.
func (m *Machine) depositRates(r map[string]float64, spec WorkloadSpec, itersPerSec, cyclesPerSec float64, hits map[topo.CacheLevel]float64) {
	isIntel := m.sys.CPU.Vendor == topo.VendorIntel
	lineBytes := 64.0
	if c, ok := m.sys.Cache(topo.L1); ok {
		lineBytes = float64(c.LineBytes)
	}
	bytesPerIter := spec.BytesPerIter()

	if isIntel {
		// Intel FP_ARITH counters increment twice for FMA instructions, so
		// FLOPs = Σ count × vector width holds exactly (the convention the
		// live-CARM GFLOPS formula of §IV-B2 relies on).
		fpMult := 1.0
		if spec.FMA {
			fpMult = 2.0
		}
		r[pmu.IntelCycles] = cyclesPerSec
		r[pmu.IntelInstructions] = spec.InstrPerIter() * itersPerSec
		r[pmu.IntelUops] = spec.InstrPerIter() * 1.12 * itersPerSec
		r[pmu.IntelLoads] = spec.Loads * itersPerSec
		r[pmu.IntelStores] = spec.Stores * itersPerSec
		for isa, instr := range spec.FPInstr {
			var ev string
			switch isa {
			case topo.ISAScalar:
				ev = pmu.IntelScalarDouble
			case topo.ISASSE:
				ev = pmu.Intel128PackedDbl
			case topo.ISAAVX2:
				ev = pmu.Intel256PackedDbl
			case topo.ISAAVX512:
				ev = pmu.Intel512PackedDbl
			}
			if ev != "" && instr > 0 {
				r[ev] += instr * fpMult * itersPerSec
			}
		}
		r[pmu.IntelFPDiv] = spec.DivOps * 4.0 * itersPerSec
		// Miss events: traffic that is *not* served by a level misses it.
		missL1 := hits[topo.L2] + hits[topo.L3] + hits[topo.DRAM]
		missL2 := hits[topo.L3] + hits[topo.DRAM]
		missL3 := hits[topo.DRAM]
		linesPerIter := bytesPerIter / lineBytes
		r[pmu.IntelL1DMiss] = linesPerIter * missL1 * itersPerSec
		r[pmu.IntelL2Miss] = linesPerIter * missL2 * itersPerSec
		r[pmu.IntelLLCMiss] = linesPerIter * missL3 * itersPerSec
		r[pmu.IntelLLCRef] = linesPerIter * (missL2 + 0.01) * itersPerSec
	} else {
		mult := 1.0
		if spec.FMA {
			mult = 2.0
		}
		r[pmu.AMDCycles] = cyclesPerSec
		r[pmu.AMDInstructions] = spec.InstrPerIter() * itersPerSec
		r[pmu.AMDUops] = spec.InstrPerIter() * 1.2 * itersPerSec
		r[pmu.AMDLoads] = spec.Loads * itersPerSec
		r[pmu.AMDStores] = spec.Stores * itersPerSec
		flops := 0.0
		for isa, instr := range spec.FPInstr {
			flops += instr * float64(isa.VectorWidth()) * mult
		}
		r[pmu.AMDFlopsAny] = flops * itersPerSec
		r[pmu.AMDFPDiv] = spec.DivOps * itersPerSec
		missL1 := hits[topo.L2] + hits[topo.L3] + hits[topo.DRAM]
		missL2 := hits[topo.L3] + hits[topo.DRAM]
		missL3 := hits[topo.DRAM]
		linesPerIter := bytesPerIter / lineBytes
		r[pmu.AMDL1DMiss] = linesPerIter * missL1 * itersPerSec
		r[pmu.AMDL2Miss] = linesPerIter * missL2 * itersPerSec
		r[pmu.AMDLLCMiss] = linesPerIter * missL3 * itersPerSec
		r[pmu.AMDLLCRetired] = linesPerIter * (missL2 + 0.01) * itersPerSec
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// AdvanceTo moves the virtual clock forward to time t (seconds), accruing
// events on PMU counter files and energy on RAPL domains. Advancing
// backwards is an error.
func (m *Machine) AdvanceTo(t float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.advanceToLocked(t)
}

func (m *Machine) advanceToLocked(t float64) error {
	if t < m.now {
		return fmt.Errorf("machine: cannot advance clock backwards (%.9f < %.9f)", t, m.now)
	}
	if t == m.now {
		return nil
	}
	// Accrue in segments delimited by execution end times so rates switch
	// off exactly at completion boundaries.
	for m.now < t {
		segEnd := t
		for _, e := range m.active {
			if end := e.End(); end > m.now && end < segEnd {
				segEnd = end
			}
		}
		dt := segEnd - m.now
		m.accrue(dt)
		m.now = segEnd
		// Retire finished executions.
		var still []*Execution
		for _, e := range m.active {
			if e.End() <= m.now+1e-12 {
				m.done = append(m.done, e)
			} else {
				still = append(still, e)
			}
		}
		m.active = still
	}
	return nil
}

// accrue deposits dt seconds of activity. Caller holds the lock.
func (m *Machine) accrue(dt float64) {
	isIntel := m.sys.CPU.Vendor == topo.VendorIntel
	cycEv, insEv := pmu.IntelCycles, pmu.IntelInstructions
	if !isIntel {
		cycEv, insEv = pmu.AMDCycles, pmu.AMDInstructions
	}
	// Baseline activity on every thread.
	for _, tp := range m.threads {
		tp.Add(cycEv, uint64(m.baselineCyclesPerSec*dt))
		tp.Add(insEv, uint64(m.baselineInstrPerSec*dt))
	}
	// Idle package power on every socket.
	for _, r := range m.rapl {
		r.AddMicrojoules("pkg", uint64(m.sys.CPU.IdleWatts*dt*1e6))
		if m.sys.CPU.Vendor == topo.VendorAMD {
			r.AddMicrojoules("dram", uint64(m.sys.CPU.IdleWatts*0.25*dt*1e6))
		}
	}
	// Active executions.
	for _, e := range m.active {
		for i, hw := range e.Pinning {
			tp := m.threads[hw]
			for ev, rate := range e.rates[i] {
				// Carry fractional remainders so totals stay exact.
				acc := e.deposited[i][ev] + rate*dt
				whole := math.Floor(acc)
				e.deposited[i][ev] = acc - whole
				if whole > 0 {
					tp.Add(ev, uint64(whole))
				}
			}
		}
		for s, w := range e.socketPower {
			if r, ok := m.rapl[s]; ok {
				r.AddMicrojoules("pkg", uint64(w*dt*1e6))
				if m.sys.CPU.Vendor == topo.VendorAMD {
					r.AddMicrojoules("dram", uint64(w*0.3*dt*1e6))
				}
			}
		}
	}
}

// Advance moves the clock forward by dt seconds.
func (m *Machine) Advance(dt float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.advanceToLocked(m.now + dt)
}

// Wait advances the clock to the end of the execution; if sampling or
// other activity already moved the clock past it, Wait is a no-op.
func (m *Machine) Wait(e *Execution) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.End() <= m.now {
		return nil
	}
	return m.advanceToLocked(e.End())
}

// Run is Launch followed by Wait: the whole kernel executes and the clock
// lands at its completion.
func (m *Machine) Run(spec WorkloadSpec, pinning []int) (*Execution, error) {
	e, err := m.Launch(spec, pinning)
	if err != nil {
		return nil, err
	}
	if err := m.Wait(e); err != nil {
		return nil, err
	}
	return e, nil
}

// ChargeSamplingCost models the interference of n counter reads occurring
// now: every active execution is stretched by the stolen CPU time. This is
// the mechanism behind the Fig 5 overhead experiment.
func (m *Machine) ChargeSamplingCost(reads int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	steal := float64(reads) * m.readCostSec
	for _, e := range m.active {
		// The stolen time is shared across the machine; per-execution
		// impact scales with the fraction of threads it occupies.
		frac := float64(len(e.Pinning)) / float64(m.sys.NumThreads())
		e.Duration += steal * frac
	}
}

// ActiveExecutions returns currently running executions.
func (m *Machine) ActiveExecutions() []*Execution {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Execution(nil), m.active...)
}

// CompletedExecutions returns finished executions in completion order.
func (m *Machine) CompletedExecutions() []*Execution {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := append([]*Execution(nil), m.done...)
	sort.Slice(out, func(i, j int) bool { return out[i].End() < out[j].End() })
	return out
}
