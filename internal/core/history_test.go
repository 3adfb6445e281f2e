package core

import (
	"bytes"
	"context"
	"os"
	"sync"
	"testing"

	"pmove/internal/docdb"
	"pmove/internal/kb"
	"pmove/internal/machine"
	"pmove/internal/storage"
	"pmove/internal/telemetry"
	"pmove/internal/topo"
)

// monitorOnce runs a short Scenario A session on host and returns its
// observation tag.
func monitorOnce(t *testing.T, d *Daemon, host string) string {
	t.Helper()
	res, err := d.MonitorContext(context.Background(), MonitorRequest{
		Host: host, Metrics: []string{machine.MetricCPUIdle}, FreqHz: 2, DurationSeconds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Observation.Tag
}

// storedEntries counts the entry documents stored for host.
func storedEntries(d *Daemon, host string) int {
	return len(d.Docs.Collection(kb.CollEntries).Find(&docdb.Filter{Eq: map[string]any{"host": host}}))
}

// TestFreshDaemonTagsAreSequential: a fresh daemon issues
// kb.NewUUID(host, 1), kb.NewUUID(host, 2), … so seeded runs stay
// reproducible.
func TestFreshDaemonTagsAreSequential(t *testing.T) {
	d := testDaemon(t, topo.PresetICL)
	defer d.Close()
	for seq := uint64(1); seq <= 3; seq++ {
		if got, want := monitorOnce(t, d, "icl"), kb.NewUUID("icl", seq); got != want {
			t.Fatalf("tag %d = %s, want %s", seq, got, want)
		}
	}
}

// TestRestartKeepsTagsAndHistory: a durable daemon restarted on its data
// directory adopts the entries earlier runs stored, issues tags past
// theirs, and its re-probe deletes none of them.
func TestRestartKeepsTagsAndHistory(t *testing.T) {
	dir := t.TempDir()
	tags := map[string]bool{}
	var d *Daemon
	for run := 1; run <= 3; run++ {
		d = durableDaemon(t, dir, "always")
		tags[monitorOnce(t, d, "icl")] = true
		if got := storedEntries(d, "icl"); got != run {
			t.Fatalf("run %d: %d stored entries, want %d", run, got, run)
		}
		if run < 3 {
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer d.Close()
	tags[monitorOnce(t, d, "icl")] = true
	if len(tags) != 4 {
		t.Fatalf("4 runs issued %d distinct tags", len(tags))
	}
	for seq := uint64(1); seq <= 4; seq++ {
		if !tags[kb.NewUUID("icl", seq)] {
			t.Errorf("tag for seq %d never issued", seq)
		}
	}
	if got := storedEntries(d, "icl"); got != 4 {
		t.Errorf("%d stored entries after the fourth monitor, want 4", got)
	}
	k, err := kb.Load(d.Docs, "icl")
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Observations()) != 4 {
		t.Errorf("loaded KB has %d observations, want 4", len(k.Observations()))
	}
}

// TestReprobeNeverShrinksStoredKB: a reader beside repeated re-probes
// never sees fewer interface or entry documents for the host than were
// stored before it started.
func TestReprobeNeverShrinksStoredKB(t *testing.T) {
	d := testDaemon(t, topo.PresetICL)
	defer d.Close()
	monitorOnce(t, d, "icl")
	host := &docdb.Filter{Eq: map[string]any{"host": "icl"}}
	ifaces, entries := d.Docs.Collection(kb.CollInterfaces), d.Docs.Collection(kb.CollEntries)
	wantIfaces, wantEntries := len(ifaces.Find(host)), len(entries.Find(host))
	if wantIfaces == 0 || wantEntries != 1 {
		t.Fatalf("before re-probing: %d interfaces, %d entries", wantIfaces, wantEntries)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if n := len(ifaces.Find(host)); n < wantIfaces {
				t.Errorf("reader saw %d interface documents, want %d", n, wantIfaces)
				return
			}
			if n := len(entries.Find(host)); n < wantEntries {
				t.Errorf("reader saw %d entry documents, want %d", n, wantEntries)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if _, err := d.ProbeContext(context.Background(), "icl"); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	k, err := d.KB("icl")
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Entries) != 1 {
		t.Errorf("re-probed KB carries %d entries, want the stored 1", len(k.Entries))
	}
}

// TestDurableAttachWritesOnlyItsEntry: attaching an observation to a
// durable skx KB appends its entry to the docdb WAL, not the 233
// interface documents around it.
func TestDurableAttachWritesOnlyItsEntry(t *testing.T) {
	d, err := NewWith(
		WithEnv(Env{InfluxAddr: "embedded", MongoAddr: "embedded", GrafanaToken: "tok"}),
		WithDataDir(t.TempDir(), "always"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.AttachTarget(topo.MustPreset(topo.PresetSKX), machine.Config{Seed: 9}, telemetry.DefaultPipeline()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProbeContext(context.Background(), topo.PresetSKX); err != nil {
		t.Fatal(err)
	}
	before := walSize(t, d)
	monitorOnce(t, d, topo.PresetSKX)
	if grew := walSize(t, d) - before; grew >= 4<<10 {
		t.Errorf("one attach grew the docdb WAL by %d bytes, want < 4 KiB", grew)
	}
}

// walSize is the length in bytes of the daemon's docdb log: the clean
// prefix of its wal.log, after which only the zero extent may follow.
func walSize(tb testing.TB, d *Daemon) int64 {
	tb.Helper()
	img, err := os.ReadFile(d.Docs.WALPath())
	if err != nil {
		tb.Fatal(err)
	}
	_, n, err := storage.DecodeAll(img)
	if err != nil {
		tb.Fatal(err)
	}
	if len(bytes.TrimLeft(img[n:], "\x00")) != 0 {
		tb.Fatalf("nonzero bytes after the %d-byte docdb log", n)
	}
	return int64(n)
}
