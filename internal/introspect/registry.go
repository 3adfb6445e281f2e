package introspect

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready; all methods are safe on a nil receiver (disabled introspection).
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 value (set or add). Nil-safe like Counter.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (possibly negative) with a CAS loop.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefaultLatencyBounds are the histogram upper bounds (seconds) used for
// operation latencies when none are given: 1µs to 10s, decades.
var DefaultLatencyBounds = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// Histogram is a fixed-bucket histogram: counts per upper bound plus an
// implicit +Inf bucket, with total count and sum. Observations are
// lock-free; bucket bounds are fixed at creation. Nil-safe.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1, last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBounds
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Bounds returns the histogram's upper bounds (ascending, excluding the
// implicit +Inf overflow bucket). The returned slice is a copy, so
// exporters can hold it without re-deriving bucket geometry or racing
// the registry.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Kind labels a metric in a snapshot.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// BucketCount is one histogram bucket in a snapshot; LE is math.Inf(1)
// for the overflow bucket.
type BucketCount struct {
	LE    float64
	Count uint64
}

// Metric is one registry entry frozen at snapshot time.
type Metric struct {
	Name  string
	Kind  Kind
	Value float64 // counter (as float) or gauge value
	Count uint64  // histogram observation count
	Sum   float64 // histogram sum
	// Buckets are cumulative-free per-bucket counts, ascending by LE.
	Buckets []BucketCount
}

// Cumulative returns the histogram buckets in cumulative (Prometheus
// "le") form, ending with the +Inf bucket whose count equals Count.
// Nil for non-histograms.
func (m Metric) Cumulative() []BucketCount {
	if m.Kind != KindHistogram {
		return nil
	}
	out := make([]BucketCount, len(m.Buckets))
	var running uint64
	for i, b := range m.Buckets {
		running += b.Count
		out[i] = BucketCount{LE: b.LE, Count: running}
	}
	return out
}

// Snapshot is a consistent-enough view of a registry: each metric is read
// atomically; the set is read under the registry lock.
type Snapshot struct {
	Metrics []Metric // sorted by (Name, Kind)
}

// Get finds a metric by name.
func (s Snapshot) Get(name string) (Metric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// CounterValue returns a counter's value, 0 when absent.
func (s Snapshot) CounterValue(name string) uint64 {
	if m, ok := s.Get(name); ok && m.Kind == KindCounter {
		return uint64(m.Value)
	}
	return 0
}

// GaugeValue returns a gauge's value, 0 when absent.
func (s Snapshot) GaugeValue(name string) float64 {
	if m, ok := s.Get(name); ok && m.Kind == KindGauge {
		return m.Value
	}
	return 0
}

// Registry is the concurrent metrics registry. Metric handles are
// get-or-create by name and safe to cache; all mutation paths are atomic.
// A nil *Registry hands out nil handles whose methods are no-ops.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given upper
// bounds on first use (DefaultLatencyBounds when empty). Bounds of an
// existing histogram are not changed.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot freezes every metric.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{Metrics: make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))}
	for name, c := range r.counters {
		s.Metrics = append(s.Metrics, Metric{Name: name, Kind: KindCounter, Value: float64(c.Load())})
	}
	for name, g := range r.gauges {
		s.Metrics = append(s.Metrics, Metric{Name: name, Kind: KindGauge, Value: g.Load()})
	}
	for name, h := range r.hists {
		m := Metric{Name: name, Kind: KindHistogram, Count: h.Count(), Sum: h.Sum()}
		for i, b := range h.bounds {
			m.Buckets = append(m.Buckets, BucketCount{LE: b, Count: h.counts[i].Load()})
		}
		m.Buckets = append(m.Buckets, BucketCount{LE: math.Inf(1), Count: h.counts[len(h.bounds)].Load()})
		s.Metrics = append(s.Metrics, m)
	}
	sort.Slice(s.Metrics, func(i, j int) bool {
		a, b := s.Metrics[i], s.Metrics[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Kind < b.Kind
	})
	return s
}
