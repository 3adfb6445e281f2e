package core

import (
	"context"
	"testing"

	"pmove/internal/kb"
	"pmove/internal/kernels"
	"pmove/internal/ontology"
	"pmove/internal/topo"
)

// TestObserveInstantiatesProcessInterface checks §III-C: "a
// ProcessInterface is re-instantiated each time it is invoked, reflecting
// the processes' dynamic nature" — every Scenario B observation leaves a
// fresh process twin in the KB with its thread binding.
func TestObserveInstantiatesProcessInterface(t *testing.T) {
	d := testDaemon(t, topo.PresetICL)
	spec, err := kernels.Likwid("sum", topo.ISAScalar, 1<<20, 200)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *ObserveResult {
		res, err := d.ObserveContext(context.Background(), ObserveRequest{
			Host: "icl", Workload: spec, Command: "./sum", Threads: 2,
			HWEvents: []string{"UNHALTED_CORE_CYCLES"}, FreqHz: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run()
	r2 := run()
	k, _ := d.KB("icl")
	var procs []*kb.Process
	for _, e := range k.Entries {
		if p, ok := e.(*kb.Process); ok {
			procs = append(procs, p)
		}
	}
	if len(procs) != 2 {
		t.Fatalf("process twins: %d, want one per observation", len(procs))
	}
	for _, p := range procs {
		if p.Kind() != ontology.EntryProcess {
			t.Errorf("kind = %s", p.Kind())
		}
		if p.Command != "./sum" {
			t.Errorf("command = %q", p.Command)
		}
		if len(p.Threads) != 2 {
			t.Errorf("thread binding: %v", p.Threads)
		}
	}
	if procs[0].EntryID() == procs[1].EntryID() {
		t.Error("process twins should be re-instantiated, not reused")
	}
	// The observations and process twins survive persistence.
	loaded, err := kb.Load(d.Docs, "icl")
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, e := range loaded.Entries {
		if e.Kind() == ontology.EntryProcess {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("persisted process twins: %d", count)
	}
	_ = r1
	_ = r2
}
