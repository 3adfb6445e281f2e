package kb_test

import (
	"testing"

	"pmove/internal/docdb"
	"pmove/internal/kb"
	"pmove/internal/pmu"
	"pmove/internal/topo"
)

// probedKB builds a KB exactly the way the daemon does: preset system →
// prober wired to the pmu catalog and telemetry metric inventory →
// Generate.
func probedKB(t *testing.T) *kb.KB {
	t.Helper()
	sys := topo.MustPreset(topo.PresetICL)
	p := topo.NewProber()
	p.EventLister = func(arch string) []string {
		cat, err := pmu.CatalogFor(arch)
		if err != nil {
			return nil
		}
		return cat.Names()
	}
	p.MetricLister = func(*topo.System) []string {
		return []string{"kernel.percpu.cpu.idle", "kernel.percpu.cpu.user"}
	}
	probe, err := p.Probe(sys)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	k, err := kb.Generate(probe, kb.Config{InfluxAddr: "tsdb:8086", MongoAddr: "docdb:27017"})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := k.Validate(); err != nil {
		t.Fatalf("generated KB invalid: %v", err)
	}
	return k
}

// TestProbeKBRoundTrip pins the probe → Generate → Persist → Load arc:
// the loaded KB must carry the same node set, root and config as the
// generated one, and re-persisting must be idempotent (stable document
// counts, no duplicate twins).
func TestProbeKBRoundTrip(t *testing.T) {
	k := probedKB(t)
	db := docdb.New()
	if err := k.Persist(db); err != nil {
		t.Fatalf("persist: %v", err)
	}

	loaded, err := kb.Load(db, k.Host)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if loaded.Len() != k.Len() {
		t.Fatalf("loaded %d nodes, persisted %d", loaded.Len(), k.Len())
	}
	if loaded.Root().ID != k.Root().ID {
		t.Errorf("root changed: %q -> %q", k.Root().ID, loaded.Root().ID)
	}
	if loaded.Config != k.Config {
		t.Errorf("config changed: %+v -> %+v", k.Config, loaded.Config)
	}
	for _, n := range k.Nodes() {
		ln, ok := loaded.Node(n.ID)
		if !ok {
			t.Fatalf("node %s lost in round trip", n.ID)
		}
		if ln.Kind != n.Kind || ln.Parent != n.Parent || len(ln.Children) != len(n.Children) {
			t.Errorf("node %s changed shape: %+v -> %+v", n.ID, n, ln)
		}
	}
	if err := loaded.Validate(); err != nil {
		t.Fatalf("loaded KB invalid: %v", err)
	}

	// Idempotency: persisting the same KB again must not grow the store.
	before := len(db.Collection(kb.CollInterfaces).Find(nil))
	if err := k.Persist(db); err != nil {
		t.Fatalf("re-persist: %v", err)
	}
	if after := len(db.Collection(kb.CollInterfaces).Find(nil)); after != before {
		t.Errorf("re-persist grew interface docs %d -> %d", before, after)
	}
}

// TestProbeKBObservationRoundTrip pins that dynamic entries attached
// after probing survive persistence alongside the twins.
func TestProbeKBObservationRoundTrip(t *testing.T) {
	k := probedKB(t)
	obs := &kb.Observation{
		ID:      "obs:rt-1",
		Type:    "ObservationInterface",
		Tag:     "rt-tag",
		Host:    k.Host,
		Command: "sleep 1",
		FreqHz:  25,
		Metrics: []kb.MetricRef{{Measurement: "kernel_percpu_cpu_idle", Fields: []string{"_cpu0"}}},
	}
	if err := k.Attach(obs); err != nil {
		t.Fatalf("attach: %v", err)
	}
	db := docdb.New()
	if err := k.Persist(db); err != nil {
		t.Fatalf("persist: %v", err)
	}
	loaded, err := kb.Load(db, k.Host)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	got, ok := loaded.FindObservation("rt-tag")
	if !ok {
		t.Fatal("observation lost in round trip")
	}
	if got.Command != obs.Command || got.FreqHz != obs.FreqHz || len(got.Metrics) != 1 {
		t.Errorf("observation changed: %+v -> %+v", obs, got)
	}
}
