package core

import (
	"context"
	"testing"

	"pmove/internal/kb"
	"pmove/internal/machine"
	"pmove/internal/telemetry"
	"pmove/internal/topo"
)

// durableDaemon builds a daemon on a data directory and attaches a
// probed ICL target.
func durableDaemon(t *testing.T, dir, fsync string) *Daemon {
	t.Helper()
	d, err := NewWith(
		WithEnv(Env{InfluxAddr: "embedded", MongoAddr: "embedded", GrafanaToken: "tok"}),
		WithDataDir(dir, fsync),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AttachTarget(topo.MustPreset(topo.PresetICL), machine.Config{Seed: 9}, telemetry.DefaultPipeline()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProbeContext(context.Background(), topo.PresetICL); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDaemonDataDirSurvivesRestart: a monitored run's KB documents and
// telemetry points come back when a second daemon opens the same data
// directory — the end-to-end durability contract at the daemon surface.
func TestDaemonDataDirSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	d := durableDaemon(t, dir, "always")
	res, err := d.MonitorContext(context.Background(), MonitorRequest{Host: "icl", Metrics: []string{machine.MetricCPUIdle}, FreqHz: 2, DurationSeconds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Inserted == 0 {
		t.Fatal("monitor run inserted nothing")
	}
	wantPoints, _ := d.TS.CountValues("cpu_idle")
	wantKB, err := d.KB("icl")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := NewWith(
		WithEnv(Env{InfluxAddr: "embedded", MongoAddr: "embedded", GrafanaToken: "tok"}),
		WithDataDir(dir, "always"),
	)
	if err != nil {
		t.Fatalf("reopen data dir: %v", err)
	}
	defer re.Close()
	if got, _ := re.TS.CountValues("cpu_idle"); got != wantPoints {
		t.Errorf("recovered %d telemetry points, want %d", got, wantPoints)
	}
	loaded, err := kb.Load(re.Docs, "icl")
	if err != nil {
		t.Fatalf("KB not recovered from the data dir: %v", err)
	}
	if loaded.Len() != wantKB.Len() {
		t.Errorf("recovered KB has %d nodes, want %d", loaded.Len(), wantKB.Len())
	}
}

// TestDaemonCloseRefusesFurtherWrites pins the released-daemon contract:
// reads keep working, writes fail loudly instead of going volatile.
func TestDaemonCloseRefusesFurtherWrites(t *testing.T) {
	dir := t.TempDir()
	d := durableDaemon(t, dir, "always")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.MonitorContext(context.Background(), MonitorRequest{Host: "icl", Metrics: []string{machine.MetricCPUIdle}, FreqHz: 2, DurationSeconds: 2}); err == nil {
		t.Error("closed durable daemon accepted a monitoring run")
	}
	if err := d.Close(); err != nil {
		t.Errorf("double Close not idempotent: %v", err)
	}
}

// TestDaemonBadDataDirConfig pins construction validation.
func TestDaemonBadDataDirConfig(t *testing.T) {
	if _, err := NewWith(WithDataDir(t.TempDir(), "sometimes")); err == nil {
		t.Error("unknown fsync policy accepted")
	}
}
