package expose

import (
	"os"
	"runtime"

	"pmove/internal/introspect"
)

// Runtime gauge names, relative to the introspector prefix (so with the
// default "pmove.self" prefix the exposition carries
// pmove_self_runtime_goroutines and friends).
const (
	GaugeGoroutines   = "runtime.goroutines"
	GaugeHeapAlloc    = "runtime.heap.alloc.bytes"
	GaugeHeapSys      = "runtime.heap.sys.bytes"
	GaugeHeapObjects  = "runtime.heap.objects"
	GaugeGCCount      = "runtime.gc.count"
	GaugeGCPauseTotal = "runtime.gc.pause.total.seconds"
	GaugeFDs          = "runtime.fds"
	GaugeConns        = "runtime.conns"
)

// CollectRuntime samples the Go runtime once into the introspector's
// registry: goroutine count, heap and GC statistics, and the process's
// open file descriptors (when /proc is available). Nil-safe.
func CollectRuntime(in *introspect.Introspector) {
	if !in.Enabled() {
		return
	}
	reg := in.Metrics()
	reg.Gauge(GaugeGoroutines).Set(float64(runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.Gauge(GaugeHeapAlloc).Set(float64(ms.HeapAlloc))
	reg.Gauge(GaugeHeapSys).Set(float64(ms.HeapSys))
	reg.Gauge(GaugeHeapObjects).Set(float64(ms.HeapObjects))
	reg.Gauge(GaugeGCCount).Set(float64(ms.NumGC))
	reg.Gauge(GaugeGCPauseTotal).Set(float64(ms.PauseTotalNs) / 1e9)
	if n := countFDs(); n >= 0 {
		reg.Gauge(GaugeFDs).Set(float64(n))
	}
}

// countFDs counts the process's open file descriptors via /proc;
// -1 when the platform does not expose it.
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	// The ReadDir handle itself is one of the entries; don't count it.
	return len(ents) - 1
}
