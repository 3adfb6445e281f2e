package topo

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestPresetsValidate(t *testing.T) {
	for _, name := range Presets() {
		sys, err := NewPreset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sys.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestUnknownPreset(t *testing.T) {
	if _, err := NewPreset("vax780"); err == nil {
		t.Fatal("expected error for unknown preset")
	}
}

func TestTableIIGeometry(t *testing.T) {
	cases := []struct {
		name                    string
		sockets, cores, threads int
		vendor                  Vendor
	}{
		{PresetSKX, 2, 44, 88, VendorIntel},
		{PresetICL, 1, 8, 16, VendorIntel},
		{PresetCSL, 1, 28, 56, VendorIntel},
		{PresetZEN3, 1, 16, 32, VendorAMD},
	}
	for _, c := range cases {
		sys := MustPreset(c.name)
		if got := sys.NumSockets(); got != c.sockets {
			t.Errorf("%s: %d sockets, want %d", c.name, got, c.sockets)
		}
		if got := sys.NumCores(); got != c.cores {
			t.Errorf("%s: %d cores, want %d", c.name, got, c.cores)
		}
		if got := sys.NumThreads(); got != c.threads {
			t.Errorf("%s: %d threads, want %d", c.name, got, c.threads)
		}
		if sys.CPU.Vendor != c.vendor {
			t.Errorf("%s: vendor %s, want %s", c.name, sys.CPU.Vendor, c.vendor)
		}
	}
}

func TestThreadIDsUniqueAndDense(t *testing.T) {
	for _, name := range Presets() {
		sys := MustPreset(name)
		ts := sys.AllThreads()
		seen := map[int]bool{}
		for _, th := range ts {
			if seen[th.ID] {
				t.Fatalf("%s: duplicate thread id %d", name, th.ID)
			}
			seen[th.ID] = true
		}
		// Linux-style numbering: ids are 0..N-1.
		for i := 0; i < len(ts); i++ {
			if !seen[i] {
				t.Fatalf("%s: thread id %d missing (non-dense numbering)", name, i)
			}
		}
	}
}

// AllThreads and AllCores answer in id order whatever order the system
// lists them in: a preset's (SMT siblings are c and c+cores, so a core's
// threads are not neighbours) or one built back to front.
func TestAllThreadsAndCoresInIDOrder(t *testing.T) {
	inOrder := func(name string, sys *System) {
		t.Helper()
		ts, cs := sys.AllThreads(), sys.AllCores()
		if len(ts) != sys.NumThreads() || len(cs) != sys.NumCores() {
			t.Fatalf("%s: %d threads, %d cores listed; want %d, %d", name, len(ts), len(cs), sys.NumThreads(), sys.NumCores())
		}
		for i := 1; i < len(ts); i++ {
			if ts[i-1].ID >= ts[i].ID {
				t.Fatalf("%s: AllThreads has id %d before %d", name, ts[i-1].ID, ts[i].ID)
			}
		}
		for i := 1; i < len(cs); i++ {
			if cs[i-1].ID >= cs[i].ID {
				t.Fatalf("%s: AllCores has id %d before %d", name, cs[i-1].ID, cs[i].ID)
			}
		}
	}
	for _, name := range Presets() {
		sys := MustPreset(name)
		inOrder(name, sys)
		// The same machine with sockets, cores and threads reversed.
		back := *sys
		back.Sockets = nil
		for i := len(sys.Sockets) - 1; i >= 0; i-- {
			sk := sys.Sockets[i]
			sk.Cores = nil
			for j := len(sys.Sockets[i].Cores) - 1; j >= 0; j-- {
				c := sys.Sockets[i].Cores[j]
				c.Threads = nil
				for k := len(sys.Sockets[i].Cores[j].Threads) - 1; k >= 0; k-- {
					c.Threads = append(c.Threads, sys.Sockets[i].Cores[j].Threads[k])
				}
				sk.Cores = append(sk.Cores, c)
			}
			back.Sockets = append(back.Sockets, sk)
		}
		inOrder(name+" reversed", &back)
	}
}

func TestSMTSiblingNumbering(t *testing.T) {
	// cpu0 and cpu<numCores> must share core 0 (the Linux convention the
	// probe output follows).
	sys := MustPreset(PresetSKX)
	cores := sys.NumCores()
	var c0, c44 int = -1, -1
	for _, th := range sys.AllThreads() {
		if th.ID == 0 {
			c0 = th.CoreID
		}
		if th.ID == cores {
			c44 = th.CoreID
		}
	}
	if c0 != c44 {
		t.Fatalf("cpu0 on core %d but cpu%d on core %d; should be SMT siblings", c0, cores, c44)
	}
}

func TestCacheLevelFor(t *testing.T) {
	sys := MustPreset(PresetCSL) // L1 32K, L2 1M, L3 38.5M
	cases := []struct {
		wss  int64
		want CacheLevel
	}{
		{16 << 10, L1},
		{32 << 10, L1},
		{33 << 10, L2},
		{1 << 20, L2},
		{2 << 20, L3},
		{64 << 20, DRAM},
	}
	for _, c := range cases {
		if got := sys.CacheLevelFor(c.wss); got != c.want {
			t.Errorf("wss %d: got %s want %s", c.wss, got, c.want)
		}
	}
}

func TestPeakGFLOPSMonotonicInISA(t *testing.T) {
	sys := MustPreset(PresetSKX)
	prev := 0.0
	for _, isa := range []ISA{ISAScalar, ISASSE, ISAAVX2, ISAAVX512} {
		g := sys.PeakGFLOPS(isa, sys.NumCores())
		if g <= prev {
			t.Errorf("peak GFLOPS not increasing at %s: %f <= %f", isa, g, prev)
		}
		prev = g
	}
	// SMT threads beyond core count add no FLOPs.
	if sys.PeakGFLOPS(ISAAVX512, sys.NumThreads()) != sys.PeakGFLOPS(ISAAVX512, sys.NumCores()) {
		t.Error("SMT threads should not increase peak FLOPs")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mutations := []func(*System){
		func(s *System) { s.Hostname = "" },
		func(s *System) { s.Sockets = nil },
		func(s *System) { s.Sockets[0].Cores[0].SocketID = 99 },
		func(s *System) { s.Sockets[0].Cores[0].Threads[0].CoreID = 77 },
		func(s *System) { s.Sockets[0].Cores[1].ID = s.Sockets[0].Cores[0].ID },
		func(s *System) { s.NUMA[0].CoreIDs = append(s.NUMA[0].CoreIDs, 4242) },
		func(s *System) { s.Caches[0].SizeBytes = 0 },
		func(s *System) { s.Caches[0].LineBytes = -1 },
	}
	for i, mutate := range mutations {
		sys := MustPreset(PresetICL)
		mutate(sys)
		if err := sys.Validate(); err == nil {
			t.Errorf("mutation %d not caught by Validate", i)
		}
	}
}

func TestProbeRoundTrip(t *testing.T) {
	sys := WithGPU(MustPreset(PresetSKX))
	p := NewProber()
	p.EventLister = func(string) []string { return []string{"EV_A", "EV_B"} }
	p.MetricLister = func(*System) []string { return []string{"kernel.all.load"} }
	doc, err := p.Probe(sys)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Sources["gpus"] != SourceNVSMI {
		t.Error("GPU section should be attributed to nvidia-smi")
	}
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeProbeDoc(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hostname != sys.Hostname {
		t.Errorf("hostname %q, want %q", got.Hostname, sys.Hostname)
	}
	if len(got.PMUEvents) != 2 || got.PMUEvents[0] != "EV_A" {
		t.Errorf("PMU events lost in round trip: %v", got.PMUEvents)
	}
	if got.System.NumThreads() != sys.NumThreads() {
		t.Error("system lost in round trip")
	}
}

func TestDecodeProbeDocRejectsBadInput(t *testing.T) {
	if _, err := DecodeProbeDoc(bytes.NewReader([]byte("{"))); err == nil {
		t.Fatal("expected error for truncated JSON")
	}
	if _, err := DecodeProbeDoc(bytes.NewReader([]byte(`{"version":1}`))); err == nil {
		t.Fatal("expected error for missing system")
	}
}

func TestPinStrategiesProduceValidAffinity(t *testing.T) {
	for _, name := range Presets() {
		sys := MustPreset(name)
		for _, strat := range PinStrategies() {
			for _, n := range []int{1, 2, sys.NumCores(), sys.NumThreads()} {
				pin, err := Pin(sys, strat, n)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", name, strat, n, err)
				}
				if len(pin) != n {
					t.Fatalf("%s/%s: got %d ids, want %d", name, strat, len(pin), n)
				}
				seen := map[int]bool{}
				valid := map[int]bool{}
				for _, th := range sys.AllThreads() {
					valid[th.ID] = true
				}
				for _, id := range pin {
					if seen[id] {
						t.Fatalf("%s/%s: thread %d pinned twice", name, strat, id)
					}
					if !valid[id] {
						t.Fatalf("%s/%s: invalid thread id %d", name, strat, id)
					}
					seen[id] = true
				}
			}
		}
	}
}

func TestPinBalancedUsesDistinctCores(t *testing.T) {
	sys := MustPreset(PresetSKX) // 44 cores
	pin, err := Pin(sys, PinBalanced, 44)
	if err != nil {
		t.Fatal(err)
	}
	coreOf := map[int]int{}
	for _, th := range sys.AllThreads() {
		coreOf[th.ID] = th.CoreID
	}
	cores := map[int]bool{}
	for _, id := range pin {
		if cores[coreOf[id]] {
			t.Fatalf("balanced pinning reused core %d before exhausting cores", coreOf[id])
		}
		cores[coreOf[id]] = true
	}
}

func TestPinCompactFillsSMTFirst(t *testing.T) {
	sys := MustPreset(PresetICL) // 8c/16t
	pin, err := Pin(sys, PinCompact, 2)
	if err != nil {
		t.Fatal(err)
	}
	coreOf := map[int]int{}
	for _, th := range sys.AllThreads() {
		coreOf[th.ID] = th.CoreID
	}
	if coreOf[pin[0]] != coreOf[pin[1]] {
		t.Fatalf("compact pinning should fill SMT siblings first: %v on cores %d,%d",
			pin, coreOf[pin[0]], coreOf[pin[1]])
	}
}

func TestPinNUMABalancedAlternatesNodes(t *testing.T) {
	sys := MustPreset(PresetSKX) // 2 NUMA nodes
	pin, err := Pin(sys, PinNUMABalanced, 4)
	if err != nil {
		t.Fatal(err)
	}
	numaOf := func(threadID int) int {
		for _, c := range sys.AllCores() {
			for _, th := range c.Threads {
				if th.ID == threadID {
					return c.NUMAID
				}
			}
		}
		return -1
	}
	if numaOf(pin[0]) == numaOf(pin[1]) {
		t.Fatalf("numa_balanced should alternate nodes: %v", pin)
	}
}

func TestPinErrors(t *testing.T) {
	sys := MustPreset(PresetICL)
	if _, err := Pin(sys, PinBalanced, 0); err == nil {
		t.Error("expected error for zero threads")
	}
	if _, err := Pin(sys, PinBalanced, sys.NumThreads()+1); err == nil {
		t.Error("expected error for oversubscription")
	}
	if _, err := Pin(sys, PinStrategy("bogus"), 1); err == nil {
		t.Error("expected error for unknown strategy")
	}
}

func TestPinPropertyNoDuplicates(t *testing.T) {
	sys := MustPreset(PresetZEN3)
	f := func(nRaw uint8, sIdx uint8) bool {
		n := int(nRaw)%sys.NumThreads() + 1
		strat := PinStrategies()[int(sIdx)%len(PinStrategies())]
		pin, err := Pin(sys, strat, n)
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for _, id := range pin {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		return len(pin) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestISAVectorWidth(t *testing.T) {
	if ISAScalar.VectorWidth() != 1 || ISASSE.VectorWidth() != 2 ||
		ISAAVX2.VectorWidth() != 4 || ISAAVX512.VectorWidth() != 8 {
		t.Fatal("vector widths wrong")
	}
}

func TestWidestISA(t *testing.T) {
	if MustPreset(PresetCSL).CPU.WidestISA() != ISAAVX512 {
		t.Error("CSL should report AVX-512")
	}
	if MustPreset(PresetZEN3).CPU.WidestISA() != ISAAVX2 {
		t.Error("Zen3 should report AVX2")
	}
}

func TestWithGPUDoesNotMutateOriginal(t *testing.T) {
	sys := MustPreset(PresetICL)
	g := WithGPU(sys)
	if len(sys.GPUs) != 0 {
		t.Fatal("WithGPU mutated the original system")
	}
	if len(g.GPUs) != 1 || g.GPUs[0].Model != "NVIDIA Quadro GV100" {
		t.Fatalf("unexpected GPU: %+v", g.GPUs)
	}
}

func TestNUMAOf(t *testing.T) {
	sys := MustPreset(PresetSKX)
	if sys.NUMAOf(0) != 0 {
		t.Errorf("core 0 should be NUMA 0")
	}
	if sys.NUMAOf(22) != 1 {
		t.Errorf("core 22 should be NUMA 1 (socket 1), got %d", sys.NUMAOf(22))
	}
	if sys.NUMAOf(9999) != -1 {
		t.Error("unknown core should return -1")
	}
}
