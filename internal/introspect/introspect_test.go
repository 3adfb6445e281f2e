package introspect

import (
	"context"
	"math"
	"sync"
	"testing"
)

// TestRegistryConcurrent hammers every metric kind from many goroutines;
// run under -race this is the registry's safety proof, and the final
// counts are its linearizability check.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("ops.total").Inc()
				r.Counter("ops.batch").Add(3)
				r.Gauge("inflight").Add(1)
				r.Gauge("inflight").Add(-1)
				r.Histogram("latency").Observe(float64(i%7) * 1e-4)
			}
		}(w)
	}
	wg.Wait()

	const n = workers * perWorker
	if got := r.Counter("ops.total").Load(); got != n {
		t.Errorf("ops.total = %d, want %d", got, n)
	}
	if got := r.Counter("ops.batch").Load(); got != 3*n {
		t.Errorf("ops.batch = %d, want %d", got, 3*n)
	}
	if got := r.Gauge("inflight").Load(); got != 0 {
		t.Errorf("inflight = %g, want 0", got)
	}
	h := r.Histogram("latency")
	if h.Count() != n {
		t.Errorf("histogram count = %d, want %d", h.Count(), n)
	}
	var bucketSum uint64
	snap := r.Snapshot()
	m, ok := snap.Get("latency")
	if !ok || m.Kind != KindHistogram {
		t.Fatalf("latency histogram missing from snapshot: %+v", m)
	}
	for _, b := range m.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != n {
		t.Errorf("bucket counts sum to %d, want %d", bucketSum, n)
	}
	if !math.IsInf(m.Buckets[len(m.Buckets)-1].LE, 1) {
		t.Error("last bucket is not +Inf")
	}
}

// TestNilSafety proves disabled introspection costs no conditionals at
// call sites: every method on nil receivers is a no-op.
func TestNilSafety(t *testing.T) {
	var in *Introspector
	if in.Enabled() {
		t.Fatal("nil introspector reports enabled")
	}
	reg := in.Metrics()
	reg.Counter("x").Inc()
	reg.Gauge("y").Set(1)
	reg.Histogram("z").Observe(1)
	if got := reg.Counter("x").Load(); got != 0 {
		t.Errorf("nil registry counter = %d", got)
	}
	if snap := in.Snapshot(); len(snap.Metrics) != 0 {
		t.Errorf("nil snapshot has %d metrics", len(snap.Metrics))
	}
	ctx, span := in.StartSpan(context.Background(), "op")
	if ctx == nil {
		t.Fatal("nil StartSpan dropped the context")
	}
	span.End(nil) // must not panic
	var tr *Tracer
	if tr.Spans() != nil || tr.Dropped() != 0 {
		t.Error("nil tracer not empty")
	}
}
