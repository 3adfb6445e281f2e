package abst

import (
	"context"
	"fmt"

	"pmove/internal/tsdb"
)

// EvalOverTSDB evaluates a generic event's formula against the telemetry
// an observation stored: each referenced hardware event is read back as
// the final cumulative count of its measurement (summed over the given
// instance fields), then the vendor formula combines them — the
// "generation of queries for advanced analysis" the KB enables, expressed
// through the Abstraction Layer.
//
// Example: EvalOverTSDB(db, reg, "cascade", GenericTotalMemOps, tag,
// fields) reads the MEM_INST_RETIRED:ALL_LOADS and ...:ALL_STORES
// measurements under the observation tag and returns their sum.
func EvalOverTSDB(db *tsdb.DB, reg *Registry, pmuName, genericEvent, tag string, fields []string) (float64, error) {
	f, err := reg.Lookup(pmuName, genericEvent)
	if err != nil {
		return 0, err
	}
	return f.Eval(func(hwEvent string) (float64, error) {
		meas := "perfevent_hwcounters_" + tsdb.MeasurementName(hwEvent)
		q := &tsdb.Query{
			Fields:      fields,
			Measurement: meas,
			TagFilter:   map[string]string{},
		}
		if len(fields) == 0 {
			q.Fields = []string{"*"}
		}
		if tag != "" {
			q.TagFilter["tag"] = tag
		}
		res, err := db.ExecuteContext(context.Background(), tsdb.QueryRequest{Query: q})
		if err != nil {
			return 0, err
		}
		if len(res.Rows) == 0 {
			return 0, fmt.Errorf("abst: no telemetry for %s (measurement %s, tag %q)", hwEvent, meas, tag)
		}
		// Cumulative counters: the maximum per field is the final count;
		// batched zeros and losses only remove information.
		best := map[string]float64{}
		for _, row := range res.Rows {
			for field, v := range row.Values {
				if v > best[field] {
					best[field] = v
				}
			}
		}
		total := 0.0
		for _, v := range best {
			total += v
		}
		return total, nil
	})
}
