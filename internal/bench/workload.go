// Package bench is the repository's benchmark: four closed-loop
// workloads over the monitoring path (sampler → wire → WAL → columnar
// store → aggregate query → dashboard), the end-to-end metrics a user of
// that path sees, and per-layer metrics timed from outside through each
// module's public, context-first entry points. BENCHMARK.json at the
// repository root names every workload and metric; README.md in this
// directory says why each exists and which layer should move which
// number. cmd/pmovebench is the command.
package bench

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"pmove/internal/storage"
	"pmove/internal/tsdb"
)

// Workload names, in the order the full run executes them.
var Workloads = []string{"live_monitor", "bulk_ingest", "dash_cold", "mixed_rw"}

// fsyncPolicy is the flush policy of every durable workload: Table III
// counts every lost point, so an ack must mean "on disk".
const fsyncPolicy = storage.FsyncAlways

// Options configure one run.
type Options struct {
	// Seed derives every input; the same seed replays the same op stream.
	Seed uint64
	// Seconds is how long a workload measures: fixed-size rounds (fresh
	// stack, set-up, timed section, checks) repeat until it has elapsed.
	Seconds float64
	// Scale multiplies each round's operation counts (1 = the sizes in
	// README.md; the smoke test runs 0.01).
	Scale float64
	// Dir is the parent of the per-round data directories; each is made
	// with os.MkdirTemp and removed when its round ends.
	Dir string
	// Digest hashes the op stream into Result.Digest.
	Digest bool
}

// Metric is one reported number. N is the sample count behind a timing
// (0 for counts and ratios).
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// Result is one workload run, untraced (end-to-end metrics) or traced
// (per-layer metrics).
type Result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Rounds    int               `json:"rounds"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"` // first few, verbatim
	Digest    string            `json:"digest,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	// SpanNames counts the harness spans of the traced rounds' timed
	// sections by name — the evidence that a workload isolates what it
	// claims to.
	SpanNames map[string]int `json:"span_names,omitempty"`

	chrome []byte
}

// ChromeTrace is the traced pass rendered as Chrome trace-event JSON
// (nil for an untraced run).
func (r *Result) ChromeTrace() []byte { return r.chrome }

// checker counts operations and the ones that failed, errored or came
// back wrong. The first few failures are kept verbatim.
type checker struct {
	attempted, failed int64
	failures          []string
}

func (c *checker) op(n int64) { c.attempted += n }

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// roundCtx is what one round of a workload gets.
type roundCtx struct {
	seed   uint64
	scale  float64
	dir    string // private to the round; "" for in-memory workloads
	tr     *tracer
	hooks  bool // switch on the program's own tracing hooks (traced pass)
	digest *opDigest
	check  *checker
}

// scaled applies -scale to an operation count, never below min.
func scaled(n int, scale float64, min int) int {
	v := int(float64(n)*scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

func (rc *roundCtx) scaled(n, min int) int { return scaled(n, rc.scale, min) }

// roundStats is what one round measured. Workloads fill what applies.
type roundStats struct {
	setupS float64

	// ops closed-loop iterations (ticks, batches, queries) completed in
	// opsS seconds: wall time where goroutines run side by side, time
	// waiting on the program where one goroutine issues them.
	ops  int64
	opsS float64

	writePoints int64   // points acked in the section points_per_s covers
	writeWallS  float64 // that section's wall time
	writeMs     []float64
	queryMs     []float64
	t2qMs       []float64 // tick start → refresh query shows the tick

	pointsAttempted, pointsQueryable int64

	recoverS, compactS  float64
	walBytes, snapBytes int64
	durablePoints       int64 // points the WAL and the snapshot hold
	heapBytes           int64
	residentPoints      int64

	// Traced pass only (the program's own hooks are on).
	cacheHits, cacheMisses, cacheEvictions, cacheInvalidations uint64
	storageBytes, compressionRatio                             float64
	retries                                                    uint64
	wireSeconds                                                [len(wireParts)]float64 // traceexport.Attribute, summed
	traced                                                     bool
}

// workload is one of the four load shapes. round stands up a fresh
// stack, runs the fixed, seed-derived op stream and tears down.
type workload interface {
	round(ctx context.Context, rc *roundCtx) (*roundStats, error)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "live_monitor":
		return liveMonitor{}, nil
	case "bulk_ingest":
		return bulkIngest{}, nil
	case "dash_cold":
		return dashCold{}, nil
	case "mixed_rw":
		return mixedRW{}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %v)", name, Workloads)
}

// minRounds is the fewest rounds an untraced run reports medians over.
const minRounds = 3

// runRounds repeats rounds of w until opts.Seconds have elapsed, and at
// least min times. each, when set, says whether round i is traced.
func runRounds(ctx context.Context, name string, w workload, opts Options, min int, check *checker,
	digest *opDigest, each func(i int) (tr *tracer, hooks bool)) ([]*roundStats, error) {
	var rounds []*roundStats
	start := time.Now()
	for i := 0; i < min || time.Since(start).Seconds() < opts.Seconds; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rc := &roundCtx{seed: newRNG(opts.Seed, uint64(i)).next(), scale: opts.Scale, check: check}
		if i == 0 {
			rc.digest = digest
		}
		if each != nil {
			rc.tr, rc.hooks = each(i)
		}
		dir, err := os.MkdirTemp(opts.Dir, name+"-*")
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		rc.dir = dir
		st, err := w.round(ctx, rc)
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("bench: %s round %d: %w", name, i, err)
		}
		st.traced = rc.tr != nil
		rounds = append(rounds, st)
	}
	return rounds, nil
}

// Run executes one workload untraced and reports the end-to-end metrics.
func Run(ctx context.Context, name string, opts Options) (*Result, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	opts, err = opts.withDefaults()
	if err != nil {
		return nil, err
	}
	check := &checker{}
	var digest *opDigest
	if opts.Digest {
		digest = newOpDigest()
	}
	min := minRounds
	if opts.Seconds <= 0 {
		min = 1 // the smoke test
	}
	rounds, err := runRounds(ctx, name, w, opts, min, check, digest, nil)
	if err != nil {
		return nil, err
	}
	res := newResult(name, opts, false, len(rounds), check, digest)
	endToEnd(name, rounds, check, res.Metrics)
	return res, nil
}

func (o Options) withDefaults() (Options, error) {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Dir == "" {
		o.Dir = ".pmovebench"
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return o, fmt.Errorf("bench: %w", err)
	}
	return o, nil
}

func newResult(name string, opts Options, traced bool, rounds int, check *checker, digest *opDigest) *Result {
	return &Result{
		Workload: name, Seed: opts.Seed, Traced: traced, Rounds: rounds,
		Correct: check.failed == 0, Attempted: check.attempted, Failed: check.failed,
		Failures: check.failures, Digest: digest.sum(), Metrics: map[string]Metric{},
	}
}

// over collects f(round) across rounds.
func over(rounds []*roundStats, f func(*roundStats) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return out
}

func pooled(rounds []*roundStats, f func(*roundStats) []float64) []float64 {
	var out []float64
	for _, r := range rounds {
		out = append(out, f(r)...)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapInUse is HeapAlloc after two collections — what the live data
// holds, not what the last cycle left behind.
func heapInUse() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func dirSize(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && !e.IsDir() {
			n += fi.Size()
		}
	}
	return n
}

// rowCount runs the full-range count() of one field per measurement and
// adds them up: the rows a dashboard can actually reach.
func rowCount(ctx context.Context, db *tsdb.DB, fieldOf map[string]string) (int64, error) {
	names := make([]string, 0, len(fieldOf))
	for m := range fieldOf {
		names = append(names, m)
	}
	sort.Strings(names)
	var total int64
	for _, m := range names {
		col := fmt.Sprintf("count(%s)", fieldOf[m])
		res, err := db.ExecuteContext(ctx, tsdb.QueryRequest{
			Statement: fmt.Sprintf("SELECT count(%q) FROM %q", fieldOf[m], m), SkipCache: true,
		})
		if err != nil {
			return 0, err
		}
		for _, row := range res.Rows {
			total += int64(row.Values[col])
		}
	}
	return total, nil
}

// conservation checks the north-star law on one store state: rows acked
// == rows the store counts == rows a full-range count() returns.
func conservation(ctx context.Context, rc *roundCtx, db *tsdb.DB, stage string, ackedRows int64, fieldOf map[string]string) error {
	rc.check.op(1)
	stored, _ := db.Stats()
	counted, err := rowCount(ctx, db, fieldOf)
	if err != nil {
		return err
	}
	if int64(stored) != ackedRows || counted != ackedRows {
		rc.check.fail("%s: %d rows acked, store counts %d, full-range count() returns %d", stage, ackedRows, stored, counted)
	}
	return nil
}

// durableTail is the end of every durable round: the flush policy is put
// to the test by Crash (which discards whatever was not flushed), the WAL
// is replayed, the store is compacted and reloaded from its snapshot,
// and verify runs on each resulting state. It closes db.
func durableTail(ctx context.Context, rc *roundCtx, db *tsdb.DB, st *roundStats,
	verify func(db *tsdb.DB, stage string) error) error {
	st.walBytes = fileSize(db.WALPath())
	if err := db.Crash(); err != nil {
		return err
	}
	sp := rc.tr.begin("tsdb.open_replay", 0, -1, 0)
	t0 := time.Now()
	recovered, err := tsdb.Open(rc.dir, fsyncPolicy)
	st.recoverS = time.Since(t0).Seconds()
	rc.tr.end(sp)
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	if err := verify(recovered, "after crash+replay"); err != nil {
		recovered.Close()
		return err
	}
	sp = rc.tr.begin("tsdb.compact_reopen", 0, -1, 0)
	t0 = time.Now()
	if err := recovered.Compact(); err != nil {
		recovered.Close()
		return err
	}
	if err := recovered.Close(); err != nil {
		return err
	}
	compacted, err := tsdb.Open(rc.dir, fsyncPolicy)
	st.compactS = time.Since(t0).Seconds()
	rc.tr.end(sp)
	if err != nil {
		return fmt.Errorf("reopen from snapshot: %w", err)
	}
	defer compacted.Close()
	st.snapBytes = dirSize(rc.dir) - fileSize(compacted.WALPath())
	return verify(compacted, "after compact+snapshot load")
}
