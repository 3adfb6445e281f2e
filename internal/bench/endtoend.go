package bench

import "slices"

// endToEndMetric is one metric a user of the monitoring path sees: the
// workloads that have it, and the share of the base's median by which it
// may get worse before -compare calls it regressed.
type endToEndMetric struct {
	name, unit, better string
	bound              float64
	workloads          []string
}

var (
	ingesting = []string{"live_monitor", "bulk_ingest", "mixed_rw"}
	querying  = []string{"live_monitor", "dash_cold", "mixed_rw"}
)

// endToEndTable is the issue's end-to-end table — each metric on the
// workloads the issue lists for it, under the issue's bound — with three
// differences. The two tails (tick_to_queryable_p99_ms, query_p99_ms) did
// not hold within a tenth between two sets of runs and are per-layer, as
// the issue provides. ops_per_s is added: the driver has every workload
// report every metric of BENCHMARK.json's end_to_end list, never 0, so
// that list can only hold what all four workloads have, and a closed
// loop's iterations per second is the one rate they all have. It, setup_s
// and heap_bytes_per_point (which the three workloads that host a store
// in-process have as much as the two the issue names) are that list, and
// carry BENCHMARK.json's bounds; README.md says why those are 25 %.
var endToEndTable = []endToEndMetric{
	{"setup_s", "s", "lower", 0.25, Workloads},
	{"ops_per_s", "1/s", "higher", 0.25, Workloads},
	{"points_per_s", "1/s", "higher", 0.10, ingesting},
	{"tick_to_queryable_p50_ms", "ms", "lower", 0.10, []string{"live_monitor"}},
	{"write_p50_ms", "ms", "lower", 0.10, ingesting},
	{"query_p50_ms", "ms", "lower", 0.10, querying},
	{"queries_per_s", "1/s", "higher", 0.10, []string{"dash_cold", "mixed_rw"}},
	{"loss_ratio", "ratio", "lower", 0, ingesting},
	{"failed_ops_ratio", "ratio", "lower", 0, Workloads},
	{"recover_s", "s", "lower", 0.10, []string{"bulk_ingest"}},
	{"compact_s", "s", "lower", 0.15, []string{"bulk_ingest"}},
	{"wal_bytes_per_point", "B/point", "lower", 0.01, []string{"bulk_ingest", "mixed_rw"}},
	{"snapshot_bytes_per_point", "B/point", "lower", 0.01, []string{"bulk_ingest"}},
	{"heap_bytes_per_point", "B/point", "lower", 0.05, Workloads},
}

// endToEnd folds a workload's rounds into the end-to-end metrics it has:
// rates, sizes and one-off durations as the median over rounds, latencies
// as the median over every op of every round.
func endToEnd(workload string, rounds []*roundStats, check *checker, m map[string]Metric) {
	perRound := func(f func(*roundStats) float64) (float64, int) {
		return median(over(rounds, f)), len(rounds)
	}
	perOp := func(f func(*roundStats) []float64) (float64, int) {
		xs := pooled(rounds, f)
		return median(xs), len(xs)
	}
	for _, spec := range endToEndTable {
		if !slices.Contains(spec.workloads, workload) {
			continue
		}
		var v float64
		var n int
		switch spec.name {
		case "setup_s":
			v, n = perRound(func(r *roundStats) float64 { return r.setupS })
		case "ops_per_s":
			v, n = perRound(func(r *roundStats) float64 { return ratio(float64(r.ops), r.opsS) })
		case "points_per_s":
			v, n = perRound(func(r *roundStats) float64 { return ratio(float64(r.writePoints), r.writeWallS) })
		case "tick_to_queryable_p50_ms":
			v, n = perOp(func(r *roundStats) []float64 { return r.t2qMs })
		case "write_p50_ms":
			v, n = perOp(func(r *roundStats) []float64 { return r.writeMs })
		case "query_p50_ms":
			v, n = perOp(func(r *roundStats) []float64 { return r.queryMs })
		case "queries_per_s":
			v, n = perRound(func(r *roundStats) float64 { return ratio(float64(len(r.queryMs)), sum(r.queryMs)/1e3) })
		case "loss_ratio":
			var attempted, queryable float64
			for _, r := range rounds {
				attempted += float64(r.pointsAttempted)
				queryable += float64(r.pointsQueryable)
			}
			v = ratio(attempted-queryable, attempted)
		case "failed_ops_ratio":
			v = ratio(float64(check.failed), float64(check.attempted))
		case "recover_s":
			v, n = perRound(func(r *roundStats) float64 { return r.recoverS })
		case "compact_s":
			v, n = perRound(func(r *roundStats) float64 { return r.compactS })
		case "wal_bytes_per_point":
			v, _ = perRound(func(r *roundStats) float64 { return ratio(float64(r.walBytes), float64(r.durablePoints)) })
		case "snapshot_bytes_per_point":
			v, _ = perRound(func(r *roundStats) float64 { return ratio(float64(r.snapBytes), float64(r.durablePoints)) })
		case "heap_bytes_per_point":
			v, _ = perRound(func(r *roundStats) float64 { return ratio(float64(r.heapBytes), float64(r.residentPoints)) })
		}
		m[spec.name] = Metric{v, spec.unit, n}
	}
}
