package kb

import (
	"strings"
	"testing"

	"pmove/internal/docdb"
	"pmove/internal/ontology"
	"pmove/internal/pmu"
	"pmove/internal/topo"
)

func testKB(t *testing.T, preset string) *KB {
	t.Helper()
	sys := topo.MustPreset(preset)
	p := topo.NewProber()
	p.EventLister = func(arch string) []string {
		cat, err := pmu.CatalogFor(arch)
		if err != nil {
			return nil
		}
		return cat.Names()
	}
	doc, err := p.Probe(sys)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Generate(doc, Config{InfluxAddr: "i:8086", MongoAddr: "m:27017", GrafanaToken: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestGenerateStructure(t *testing.T) {
	k := testKB(t, topo.PresetICL) // 1 socket, 8 cores, 16 threads
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if k.Root().Kind != ontology.KindSystem {
		t.Error("root should be the system twin")
	}
	counts := map[ontology.ComponentKind]int{}
	for _, n := range k.Nodes() {
		counts[n.Kind]++
	}
	want := map[ontology.ComponentKind]int{
		ontology.KindSystem: 1,
		ontology.KindSocket: 1,
		ontology.KindCore:   8,
		ontology.KindThread: 16,
		ontology.KindNUMA:   1,
		ontology.KindMemory: 1,
		ontology.KindDisk:   1,
		ontology.KindNIC:    1,
	}
	for kind, n := range want {
		if counts[kind] != n {
			t.Errorf("%s: %d nodes, want %d", kind, counts[kind], n)
		}
	}
	// Per-core L1+L2 plus one shared L3.
	if counts[ontology.KindCache] != 8*2+1 {
		t.Errorf("caches: %d, want 17", counts[ontology.KindCache])
	}
}

func TestGenerateGPU(t *testing.T) {
	sys := topo.WithGPU(topo.MustPreset(topo.PresetICL))
	p := topo.NewProber()
	doc, err := p.Probe(sys)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Generate(doc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	gpus := k.NodesOfKind(ontology.KindGPU)
	if len(gpus) != 1 {
		t.Fatalf("gpus: %d", len(gpus))
	}
	g := gpus[0].Interface
	if g.Property("model") != "NVIDIA Quadro GV100" {
		t.Error("GPU model property missing")
	}
	// The ncu HWTelemetry of Listing 4.
	hw := g.Telemetries(ontology.ClassHWTelemetry)
	if len(hw) != 1 || hw[0].PMUName != "ncu" {
		t.Errorf("GPU HW telemetry: %+v", hw)
	}
	if hw[0].DBName != "ncu_gpu__compute_memory_access_throughput" {
		t.Errorf("GPU DBName: %q", hw[0].DBName)
	}
}

func TestThreadTelemetryEncodesFields(t *testing.T) {
	k := testKB(t, topo.PresetICL)
	threads := k.NodesOfKind(ontology.KindThread)
	th := threads[3] // cpu3
	sw := th.Interface.Telemetries(ontology.ClassSWTelemetry)
	found := false
	for _, tel := range sw {
		if tel.SamplerName == "kernel.percpu.cpu.idle" {
			found = true
			if tel.FieldName != "_cpu3" {
				t.Errorf("field = %q, want _cpu3", tel.FieldName)
			}
			if tel.DBName != "kernel_percpu_cpu_idle" {
				t.Errorf("dbname = %q", tel.DBName)
			}
		}
	}
	if !found {
		t.Error("thread missing cpu.idle telemetry")
	}
	hw := th.Interface.Telemetries(ontology.ClassHWTelemetry)
	if len(hw) == 0 {
		t.Error("thread has no HW telemetry from the PMU inventory")
	}
	for _, tel := range hw {
		if strings.HasPrefix(tel.SamplerName, "RAPL") {
			t.Error("package-scope RAPL events must not attach to threads")
		}
	}
}

func TestSocketCarriesRAPL(t *testing.T) {
	k := testKB(t, topo.PresetSKX)
	socks := k.NodesOfKind(ontology.KindSocket)
	if len(socks) != 2 {
		t.Fatalf("sockets: %d", len(socks))
	}
	hw := socks[0].Interface.Telemetries(ontology.ClassHWTelemetry)
	if len(hw) != 1 || hw[0].SamplerName != pmu.RAPLEnergyPkg {
		t.Errorf("socket HW telemetry: %+v", hw)
	}
}

func TestViews(t *testing.T) {
	k := testKB(t, topo.PresetICL)
	threads := k.NodesOfKind(ontology.KindThread)

	// Focus: component + path to root.
	fv, err := k.FocusView(threads[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	// thread -> core -> socket -> system.
	if len(fv.Nodes) != 4 {
		t.Errorf("focus path length %d, want 4", len(fv.Nodes))
	}
	if fv.Nodes[0].Kind != ontology.KindThread || fv.Nodes[len(fv.Nodes)-1].Kind != ontology.KindSystem {
		t.Error("focus path should go component -> root")
	}

	// Subtree of a core: core + caches + threads.
	cores := k.NodesOfKind(ontology.KindCore)
	sv, err := k.SubtreeView(cores[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(sv.Nodes) != 1+2+2 { // core + L1 + L2 + 2 threads
		t.Errorf("core subtree size %d, want 5", len(sv.Nodes))
	}
	if sv.Nodes[0].ID != cores[0].ID {
		t.Error("subtree should start at its root (pre-order)")
	}

	// Subtree of the system covers everything.
	all, err := k.SubtreeView(k.Root().ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Nodes) != k.Len() {
		t.Errorf("system subtree %d nodes, want %d", len(all.Nodes), k.Len())
	}

	// Level view.
	lv, err := k.LevelView(ontology.KindThread)
	if err != nil {
		t.Fatal(err)
	}
	if len(lv.Nodes) != 16 {
		t.Errorf("thread level view: %d", len(lv.Nodes))
	}
	for i := 1; i < len(lv.Nodes); i++ {
		if lv.Nodes[i].Ordinal < lv.Nodes[i-1].Ordinal {
			t.Error("level view not ordinal-ordered")
		}
	}
	if _, err := k.LevelView(ontology.KindGPU); err == nil {
		t.Error("level view of an absent kind should error")
	}
	if _, err := k.FocusView("dtmi:dt:none:x0;1"); err == nil {
		t.Error("focus view of unknown component should error")
	}
}

func TestCrossLevelView(t *testing.T) {
	a := testKB(t, topo.PresetSKX)
	b := testKB(t, topo.PresetICL)
	v, err := CrossLevelView(ontology.KindSocket, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Nodes) != 3 { // 2 skx + 1 icl
		t.Errorf("cross view: %d nodes", len(v.Nodes))
	}
}

func TestDepth(t *testing.T) {
	k := testKB(t, topo.PresetICL)
	if d, _ := k.Depth(k.Root().ID); d != 0 {
		t.Errorf("root depth %d", d)
	}
	th := k.NodesOfKind(ontology.KindThread)[0]
	if d, _ := k.Depth(th.ID); d != 3 {
		t.Errorf("thread depth %d, want 3", d)
	}
}

func TestObservationQueriesListing3Shape(t *testing.T) {
	o := &Observation{
		ID: "obs:t", Type: "ObservationInterface",
		Tag:  "278e26c2-3fd3-45e4-862b-5646dc9e7aa0",
		Host: "skx",
		Metrics: []MetricRef{
			{Measurement: "kernel_percpu_cpu_idle", Fields: []string{"_cpu0", "_cpu1", "_cpu22", "_cpu23"}},
			{Measurement: "mem_numa_alloc_hit", Fields: []string{"_node0", "_node1"}},
		},
	}
	qs := o.Queries()
	if len(qs) != 2 {
		t.Fatalf("queries: %v", qs)
	}
	want := `SELECT "_cpu0", "_cpu1", "_cpu22", "_cpu23" FROM "kernel_percpu_cpu_idle" WHERE tag="278e26c2-3fd3-45e4-862b-5646dc9e7aa0"`
	if qs[0] != want {
		t.Errorf("query mismatch:\n got %s\nwant %s", qs[0], want)
	}
}

func TestAttachAndLookupEntries(t *testing.T) {
	k := testKB(t, topo.PresetICL)
	obs := &Observation{ID: "obs:1", Type: "ObservationInterface", Tag: "t1", Host: k.Host}
	if err := k.Attach(obs); err != nil {
		t.Fatal(err)
	}
	if err := k.Attach(obs); err == nil {
		t.Error("duplicate entry accepted")
	}
	if err := k.Attach(&Observation{}); err == nil {
		t.Error("entry without id accepted")
	}
	bench := &Benchmark{ID: "bench:1", Type: "BenchmarkInterface", Host: k.Host, Name: "carm",
		Results: []BenchmarkResult{{Metric: "peak_flops", Value: 100, Unit: "GFLOP/s",
			Params: map[string]string{"isa": "avx512"}}}}
	if err := k.Attach(bench); err != nil {
		t.Fatal(err)
	}
	if got, ok := k.FindObservation("t1"); !ok || got.ID != "obs:1" {
		t.Error("FindObservation failed")
	}
	if _, ok := k.FindObservation("nope"); ok {
		t.Error("found a ghost observation")
	}
	if bs := k.Benchmarks("carm"); len(bs) != 1 {
		t.Errorf("benchmarks: %d", len(bs))
	}
	if bs := k.Benchmarks("stream"); len(bs) != 0 {
		t.Errorf("stream benchmarks: %d", len(bs))
	}
	if r, ok := bench.Result("peak_flops", map[string]string{"isa": "avx512"}); !ok || r.Value != 100 {
		t.Error("benchmark result lookup failed")
	}
	if _, ok := bench.Result("peak_flops", map[string]string{"isa": "sse"}); ok {
		t.Error("param mismatch matched")
	}
}

func TestPersistLoadRoundTrip(t *testing.T) {
	k := testKB(t, topo.PresetICL)
	obs := &Observation{ID: "obs:1", Type: "ObservationInterface", Tag: "t1", Host: k.Host,
		Command: "spmv", Affinity: []int{0, 1}, FreqHz: 32,
		Metrics: []MetricRef{{Measurement: "m", Fields: []string{"_cpu0"}}}}
	if err := k.Attach(obs); err != nil {
		t.Fatal(err)
	}
	db := docdb.New()
	if err := k.Persist(db); err != nil {
		t.Fatal(err)
	}
	got, err := Load(db, k.Host)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != k.Len() {
		t.Errorf("loaded %d nodes, want %d", got.Len(), k.Len())
	}
	if got.Root().ID != k.Root().ID {
		t.Error("root lost")
	}
	if got.Config.GrafanaToken != "tok" {
		t.Error("config lost")
	}
	obs2 := got.Observations()
	if len(obs2) != 1 || obs2[0].Tag != "t1" || obs2[0].FreqHz != 32 {
		t.Errorf("entries lost: %+v", obs2)
	}
	// Views still work on the loaded KB.
	if _, err := got.SubtreeView(got.Root().ID); err != nil {
		t.Fatal(err)
	}
}

func TestPersistIsIdempotent(t *testing.T) {
	k := testKB(t, topo.PresetICL)
	db := docdb.New()
	if err := k.Persist(db); err != nil {
		t.Fatal(err)
	}
	n1 := len(db.Collection(CollInterfaces).Find(nil))
	if err := k.Persist(db); err != nil {
		t.Fatal(err)
	}
	n2 := len(db.Collection(CollInterfaces).Find(nil))
	if n1 != n2 {
		t.Errorf("persist not idempotent: %d then %d interface docs", n1, n2)
	}
}

func TestLoadMissingHost(t *testing.T) {
	if _, err := Load(docdb.New(), "ghost"); err == nil {
		t.Fatal("expected error")
	}
}

func TestTripleStoreLinks(t *testing.T) {
	k := testKB(t, topo.PresetICL)
	st, err := k.TripleStore()
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() == 0 {
		t.Fatal("empty triple store")
	}
	// Every thread twin must be reachable from the system twin by
	// following links (the linked-data navigation of §III).
	for _, th := range k.NodesOfKind(ontology.KindThread) {
		if !st.PathExists(k.Root().ID, th.ID) {
			t.Fatalf("thread %s unreachable from root in the triple store", th.ID)
		}
	}
}

func TestNewUUIDShapeAndUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := uint64(0); i < 1000; i++ {
		u := NewUUID("skx", i)
		if len(u) != 36 || u[8] != '-' || u[13] != '-' || u[18] != '-' || u[23] != '-' {
			t.Fatalf("bad UUID shape: %q", u)
		}
		if seen[u] {
			t.Fatalf("duplicate UUID %q at %d", u, i)
		}
		seen[u] = true
	}
	if NewUUID("skx", 1) != NewUUID("skx", 1) {
		t.Error("UUIDs should be deterministic per (host, seq)")
	}
	if NewUUID("skx", 1) == NewUUID("icl", 1) {
		t.Error("different hosts should produce different UUIDs")
	}
}

func TestSystemTwinCarriesCommands(t *testing.T) {
	k := testKB(t, topo.PresetICL)
	cmds := k.Root().Interface.Commands()
	if len(cmds) != 2 {
		t.Fatalf("commands: %d, want 2", len(cmds))
	}
	names := map[string]bool{}
	for _, c := range cmds {
		names[c.Name] = true
		if c.Request == nil || c.Response == nil {
			t.Errorf("command %s missing payloads", c.Name)
		}
		if err := ontology.ValidateDTMI(c.ID); err != nil {
			t.Errorf("command id %q: %v", c.ID, err)
		}
	}
	if !names["run_benchmark"] || !names["observe_kernel"] {
		t.Errorf("command names: %v", names)
	}
}
