package expose

import (
	"encoding/json"
	"io"
	"math"
	"strconv"

	"pmove/internal/introspect"
)

// VarCounter is the /debug/vars JSON shape of a counter.
type VarCounter struct {
	Kind  string `json:"kind"`
	Value uint64 `json:"value"`
}

// VarGauge is the /debug/vars JSON shape of a gauge.
type VarGauge struct {
	Kind  string  `json:"kind"`
	Value float64 `json:"value"`
}

// VarHistogram is the /debug/vars JSON shape of a histogram. Buckets
// are cumulative, keyed by upper bound ("+Inf" last).
type VarHistogram struct {
	Kind    string            `json:"kind"`
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets map[string]uint64 `json:"buckets"`
}

// Vars flattens a snapshot into an expvar-style map keyed by the full
// dotted metric name. Shared by the /debug/vars endpoint and the
// `pmove introspect -json` CLI dump; encoding/json sorts the keys, so
// the rendering is deterministic.
func Vars(snap introspect.Snapshot) map[string]any {
	out := map[string]any{}
	for _, m := range snap.Metrics {
		name := introspect.DefaultPrefix + "." + m.Name
		switch m.Kind {
		case introspect.KindCounter:
			out[name] = VarCounter{Kind: "counter", Value: uint64(m.Value)}
		case introspect.KindGauge:
			out[name] = VarGauge{Kind: "gauge", Value: m.Value}
		case introspect.KindHistogram:
			buckets := map[string]uint64{}
			for _, b := range m.Cumulative() {
				key := "+Inf"
				if !math.IsInf(b.LE, 1) {
					key = strconv.FormatFloat(b.LE, 'g', -1, 64)
				}
				buckets[key] = b.Count
			}
			out[name] = VarHistogram{Kind: "histogram", Count: m.Count, Sum: m.Sum, Buckets: buckets}
		}
	}
	return out
}

// EncodeVars writes the Vars map as indented JSON.
func EncodeVars(w io.Writer, snap introspect.Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Vars(snap))
}
