package tsdb

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Aggregation execution: a parsed aggregate query is planned into one
// scan per field, the matching series of the measurement are split into
// scan units (db.units, column.go) — one per overlapping sealed block
// plus one per non-empty head — and the units are scanned by a bounded
// worker pool. Each worker folds its units into partials — per-window
// aggregates, in window order because a unit's rows are time-sorted —
// and the coordinator merges them in unit order into one ordered result,
// deterministic for a fixed dataset regardless of scheduling. Workers
// observe context cancellation between units, never mid-unit, so a
// cancelled query releases the data read lock promptly without tearing
// any partial.
//
// Blocks give the scan two levels of shortcut: a block wholly inside the
// query's time bounds whose rows share one GROUP BY window folds
// straight from its footer (count/zeros/min/max/sum per field), a
// percentile's field decoding its present values alone, in place — and
// every other block decodes ONCE into a pooled scratch buffer instead of
// materializing []Point. A head is an open block: with no late rows it
// takes the footer shortcut on the same terms, and otherwise decodes
// like a block, its late rows merged in. Only decoding takes a worker.
//
// The scan holds the data lock shared for its whole duration: writers
// append to heads in place, so workers only read them, and not past the
// lock.

// fieldAgg is the partial aggregate of one field within one window.
type fieldAgg struct {
	count   uint64
	sum     float64
	min     float64
	max     float64
	samples []float64 // retained only when a percentile asks for the distribution
}

// observeRun folds the present (non-NaN) values of run, in order.
func (fa *fieldAgg) observeRun(run []float64, keepSamples bool) {
	count, sum, lo, hi := fa.count, fa.sum, fa.min, fa.max
	for _, v := range run {
		if v != v {
			continue
		}
		if count == 0 || v < lo {
			lo = v
		}
		if count == 0 || v > hi {
			hi = v
		}
		count++
		sum += v
	}
	if keepSamples {
		if count-fa.count == uint64(len(run)) {
			fa.samples = append(fa.samples, run...)
		} else {
			for _, v := range run {
				if v == v {
					fa.samples = append(fa.samples, v)
				}
			}
		}
	}
	fa.count, fa.sum, fa.min, fa.max = count, sum, lo, hi
}

// merge folds o into fa, all but its samples (placeSamples moves them).
// Partials merge in unit order, so the float sum is deterministic.
func (fa *fieldAgg) merge(o *fieldAgg) {
	if o.count == 0 {
		return
	}
	if fa.count == 0 {
		fa.min, fa.max = o.min, o.max
	} else {
		if o.min < fa.min {
			fa.min = o.min
		}
		if o.max > fa.max {
			fa.max = o.max
		}
	}
	fa.count += o.count
	fa.sum += o.sum
}

// aggPlan is the execution plan of an aggregate query: the distinct
// fields to observe and, per field, whether percentiles force sample
// retention — anySamples when any does.
type aggPlan struct {
	fields      []string
	keepSamples []bool
	fieldIdx    map[string]int
	anySamples  bool
}

func planAggregates(q *Query) *aggPlan {
	p := &aggPlan{fieldIdx: map[string]int{}}
	for _, a := range q.Aggregates {
		i, ok := p.fieldIdx[a.Field]
		if !ok {
			i = len(p.fields)
			p.fieldIdx[a.Field] = i
			p.fields = append(p.fields, a.Field)
			p.keepSamples = append(p.keepSamples, false)
		}
		if a.Fn == "p" {
			p.keepSamples[i] = true
			p.anySamples = true
		}
	}
	return p
}

// windowStart floors t to the start of its GROUP BY window (Euclidean
// floor, so negative timestamps window consistently); without a GROUP
// BY (w <= 0) everything is window 0.
func windowStart(t, w int64) int64 {
	if w <= 0 {
		return 0
	}
	q := t / w
	if t%w != 0 && t < 0 {
		q--
	}
	return q * w
}

// partial is the per-window state of one scan unit, and of the merged
// result: window starts ascending in wins, and per window one fieldAgg
// per planned field, window-major in states.
type partial struct {
	wins   []int64
	states []fieldAgg
}

// window returns the nf states of window win, adding the window, zeroed,
// if it is new. Rows arrive time-sorted, so a new window is normally the
// latest — but the window holding math.MinInt64 can start below it and
// wrap to a huge start, and that one sorts in where its value belongs.
func (p *partial) window(win int64, nf int) []fieldAgg {
	i, found := len(p.wins), false
	if i > 0 && win <= p.wins[i-1] {
		if i, found = slices.BinarySearch(p.wins, win); !found {
			p.wins = slices.Insert(p.wins, i, win)
			p.states = slices.Insert(p.states, i*nf, make([]fieldAgg, nf)...)
		}
	} else {
		p.wins = append(p.wins, win)
		p.states = append(p.states, make([]fieldAgg, nf)...)
	}
	return p.states[i*nf : (i+1)*nf]
}

// mergeStates folds one window's states src into dst, field by field.
func mergeStates(dst, src []fieldAgg) {
	for fi := range dst {
		dst[fi].merge(&src[fi])
	}
}

// merge folds one unit's partial o into p. Called in unit order, so each
// window's states — and their float sums — fold in unit order. Units of
// a series follow each other in time and series mostly share a window
// grid: the usual merge is a search, matches in place and appends.
func (p *partial) merge(o *partial, nf int) {
	if len(o.wins) == 0 {
		return
	}
	i, _ := slices.BinarySearch(p.wins, o.wins[0])
	j := 0
	for ; j < len(o.wins); j++ {
		for i < len(p.wins) && p.wins[i] < o.wins[j] {
			i++
		}
		if i == len(p.wins) {
			p.window(o.wins[j], nf)
		} else if p.wins[i] > o.wins[j] {
			break
		}
		mergeStates(p.states[i*nf:(i+1)*nf], o.states[j*nf:])
	}
	if j == len(o.wins) {
		return
	}
	// o.wins[j] is new to p and belongs before p.wins[i]: rebuild p from
	// i on as the union of its old tail and the rest of o — one pass, not
	// a shift per window.
	old := partial{slices.Clone(p.wins[i:]), slices.Clone(p.states[i*nf:])}
	p.wins, p.states = p.wins[:i], p.states[:i*nf]
	for a := 0; a < len(old.wins) || j < len(o.wins); {
		if j == len(o.wins) || (a < len(old.wins) && old.wins[a] <= o.wins[j]) {
			mergeStates(p.window(old.wins[a], nf), old.states[a*nf:])
			a++
		} else {
			mergeStates(p.window(o.wins[j], nf), o.states[j*nf:])
			j++
		}
	}
}

// placeSamples makes each of p's sample buffers once, at its merged
// count, and lays the units' samples into it in unit order: a decoded
// unit's copied, a footer unit's state pointed at its place to decode to.
// It returns how many values the footer units are to decode.
func (p *partial) placeSamples(parts []partial, units []unit, plan *aggPlan) (footerValues int) {
	nf := len(plan.fields)
	for i := range parts {
		o, w := &parts[i], 0
		for j, win := range o.wins {
			for p.wins[w] < win {
				w++
			}
			for fi, keep := range plan.keepSamples {
				src, dst := &o.states[j*nf+fi], &p.states[w*nf+fi]
				if !keep || src.count == 0 {
					continue
				}
				if dst.samples == nil {
					dst.samples = make([]float64, 0, dst.count)
				}
				if n := len(dst.samples); units[i].footer {
					dst.samples = dst.samples[:n+int(src.count)]
					src.samples = dst.samples[n:]
					footerValues += int(src.count)
				} else {
					dst.samples = append(dst.samples, src.samples...)
				}
			}
		}
	}
	return footerValues
}

// windowsIn bounds the GROUP BY windows that rows in [lo, hi], which
// meets q's bounds, touch there, by most: a partial is made at that size.
func windowsIn(lo, hi int64, most int, q *Query) int {
	if q.GroupBy <= 0 {
		return 1
	}
	if q.From != 0 {
		lo = max(lo, q.From)
	}
	if q.To != 0 {
		hi = min(hi, q.To)
	}
	n := (uint64(windowStart(hi, q.GroupBy))-uint64(windowStart(lo, q.GroupBy)))/uint64(q.GroupBy) + 1
	return int(min(n, uint64(most)))
}

// footerOnly reports whether rows spanning [minT, maxT] can fold from
// their footers alone: every row inside the time bounds (0 = unbounded)
// and every row in the same GROUP BY window.
func footerOnly(minT, maxT int64, q *Query) bool {
	if (q.From != 0 && minT < q.From) || (q.To != 0 && maxT > q.To) {
		return false
	}
	return windowStart(minT, q.GroupBy) == windowStart(maxT, q.GroupBy)
}

// foldColumns folds rows [i, hi) of a unit's decoded columns into out a
// window's run of rows at a time: the run's end is found once, then each
// field folds its slice of the run, in row order. cols is aligned with
// plan.fields; a nil column means the unit lacks that field. NaN cells
// are absent values.
func foldColumns(out *partial, times []int64, cols [][]float64, i, hi int, q *Query, plan *aggPlan) {
	for i < hi {
		// The run ends where times reach win+GroupBy. A sum not above
		// times[i] overflowed: the window runs to the end of time. (A
		// start wrapped below math.MinInt64 still sums to the true end.)
		win, j := windowStart(times[i], q.GroupBy), hi
		if end := win + q.GroupBy; q.GroupBy > 0 && end > times[i] && times[hi-1] >= end {
			for j = i + 1; times[j] < end; j++ {
			}
		}
		states := out.window(win, len(cols))
		for fi, col := range cols {
			if col != nil {
				states[fi].observeRun(col[i:j], plan.keepSamples[fi])
			}
		}
		i = j
	}
}

// foldFooter folds a footer unit's footers into out. A footer's sum was
// accumulated in row order, as a decoded scan would associate it.
func foldFooter(out *partial, u unit, q *Query, plan *aggPlan) {
	var states []fieldAgg
	for fi, name := range plan.fields {
		if bi := u.b.fieldIndex(name); bi >= 0 && u.b.fields[bi].count > 0 {
			if states == nil {
				states = out.window(windowStart(u.minT, q.GroupBy), len(plan.fields))
			}
			f := &u.b.fields[bi]
			states[fi].merge(&fieldAgg{count: f.count, sum: f.sum, min: f.min, max: f.max})
		}
	}
}

// scanUnit folds one unit into out (emptied first), its partial.
func scanUnit(u unit, q *Query, plan *aggPlan, sc *scratch, out *partial) error {
	out.wins = out.wins[:0]
	clear(out.states) // drop the last unit's sample buffers
	out.states = out.states[:0]
	if u.footer {
		foldFooter(out, u, q, plan)
		return nil
	}
	lo, hi, err := u.columns(plan.fields, q.From, q.To, sc)
	if err != nil {
		return err
	}
	foldColumns(out, sc.times, sc.cols, lo, hi, q, plan)
	return nil
}

// quantile returns the q∈[0,1] quantile of sorted by linear
// interpolation between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// selectKth partially reorders s so s[k] holds its sorted-order value,
// everything left of k is <= it and everything right is >= it —
// Hoare quickselect with median-of-three pivoting, O(n) expected. The
// order statistics it produces are exactly the sorted ones, so the
// quantile estimate is unchanged; only the full O(n log n) sort per
// window is gone.
func selectKth(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return s[k]
}

// quantileSelect computes the same linear-interpolation estimate as
// quantile, but via selection instead of a full sort.
func quantileSelect(s []float64, q float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return s[0]
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return selectKth(s, n-1)
	}
	vi := selectKth(s, i)
	// After selectKth, s[i+1:] holds only values >= s[i]; the (i+1)-th
	// order statistic is their minimum.
	vj := s[i+1]
	for _, v := range s[i+2:] {
		if v < vj {
			vj = v
		}
	}
	frac := pos - float64(i)
	return vi*(1-frac) + vj*frac
}

// value renders one aggregate from its merged field state. Valid only
// when fa.count > 0 (except count, which is always defined). The merged
// state belongs to the query alone, so a percentile selects in place.
func (a Aggregate) value(fa *fieldAgg) float64 {
	switch a.Fn {
	case "count":
		return float64(fa.count)
	case "sum":
		return fa.sum
	case "min":
		return fa.min
	case "max":
		return fa.max
	case "mean":
		return fa.sum / float64(fa.count)
	case "p":
		if len(fa.samples) <= 64 {
			sort.Float64s(fa.samples)
			return quantile(fa.samples, a.Pct/100)
		}
		return quantileSelect(fa.samples, a.Pct/100)
	}
	return math.NaN()
}

// aggColumns is the result column list, in query order.
func aggColumns(q *Query) []string {
	cols := make([]string, len(q.Aggregates))
	for i, a := range q.Aggregates {
		cols[i] = a.Column()
	}
	return cols
}

// maxDefaultQueryWorkers caps the scan pool when the request does not
// pin one.
const maxDefaultQueryWorkers = 16

// execAggregate runs q, validated to carry only aggregates, and returns
// its table, a row per window any field has values in, and the cells its
// scan decoded.
func (db *DB) execAggregate(ctx context.Context, q *Query, workers int) (table, int, error) {
	plan := planAggregates(q)
	db.data.RLock()
	defer db.data.RUnlock()
	merged, cells, err := db.scanAggregate(ctx, q, plan, workers)
	if err != nil {
		return table{}, 0, err
	}
	nf := len(plan.fields)
	t := newTable(q.Measurement, aggColumns(q), len(merged.wins))
	for wi, win := range merged.wins {
		states := merged.states[wi*nf : (wi+1)*nf]
		if !slices.ContainsFunc(states, func(fa fieldAgg) bool { return fa.count > 0 }) {
			continue
		}
		if q.GroupBy <= 0 {
			win = q.From
		}
		t.Times = append(t.Times, win)
		for ai, a := range q.Aggregates {
			// count is 0, not absent, where only another field has values.
			v, fa := absent, &states[plan.fieldIdx[a.Field]]
			if a.Fn == "count" || fa.count > 0 {
				v = a.value(fa)
			}
			t.Cols[ai] = append(t.Cols[ai], v)
		}
	}
	if len(t.Times) == 0 {
		t.Times = nil // no rows: Rows null, not []
	}
	return t, cells, nil
}

// scanAggregate folds each unit q reads into a partial — units that
// decode rows on a pool of min(workers, such units), a footer unit's
// footers straight into the merged one unless a percentile needs its
// own — merging in unit order; then footer units decode a percentile's
// values into place on a pool sized likewise. It returns the merged
// partial and the cells decoded: rows × (1 + fields) per unit that
// decodes, 1 plus its percentile values per footer unit. Callers hold
// db.data shared.
func (db *DB) scanAggregate(ctx context.Context, q *Query, plan *aggPlan, workers int) (partial, int, error) {
	units := db.units(q)
	if len(units) == 0 {
		return partial{}, 0, nil
	}
	nf := len(plan.fields)
	partials := make([]partial, len(units))
	var nFooter, nHead, cells, wins int
	lo, hi := units[0].minT, units[0].b.maxT
	for i := range units {
		u := &units[i]
		rows := u.b.rows
		if u.side != nil {
			rows += len(u.side.times)
		}
		n := windowsIn(u.minT, u.b.maxT, rows, q)
		lo, hi, wins = min(lo, u.minT), max(hi, u.b.maxT), wins+n
		// A head's footers do not cover its late rows.
		u.footer = u.side == nil && footerOnly(u.minT, u.b.maxT, q)
		if u.footer {
			nFooter++
			cells++
			continue
		}
		if u.head {
			nHead++
		}
		cells += rows * (1 + nf)
		partials[i] = partial{make([]int64, 0, n), make([]fieldAgg, 0, n*nf)}
	}
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), maxDefaultQueryWorkers)
	}
	if err := runUnits(ctx, min(workers, len(units)-nFooter), len(units), func(i int, sc *scratch) error {
		if units[i].footer && !plan.anySamples {
			return nil // folded by the merge below
		}
		return scanUnit(units[i], q, plan, sc, &partials[i])
	}); err != nil {
		return partial{}, 0, err
	}
	n := windowsIn(lo, hi, wins, q)
	merged := partial{make([]int64, 0, n), make([]fieldAgg, 0, n*nf)}
	for i := range partials {
		if units[i].footer && !plan.anySamples {
			foldFooter(&merged, units[i], q, plan)
		} else {
			merged.merge(&partials[i], nf)
		}
	}
	if plan.anySamples {
		cells += merged.placeSamples(partials, units, plan)
		if err := runUnits(ctx, min(workers, nFooter), len(units), func(i int, _ *scratch) error {
			for fi, st := range partials[i].states { // a footer unit's one window
				if units[i].footer && len(st.samples) > 0 {
					if _, err := units[i].b.decodeValues(units[i].b.fieldIndex(plan.fields[fi]), st.samples); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			return partial{}, 0, err
		}
	}
	db.qcache.countScan(nFooter, len(units)-nFooter-nHead, nHead, cells)
	return merged, cells, nil
}

// runUnits calls fn on units 0..n-1 from min(workers, n) goroutines, the
// caller's one, each with its own scratch, until an error or ctx stops them.
func runUnits(ctx context.Context, workers, n int, fn func(i int, sc *scratch) error) error {
	var next atomic.Int64
	var failed atomic.Pointer[error]
	work := func() {
		sc := scratchPool.Get().(*scratch)
		defer scratchPool.Put(sc)
		for i := int(next.Add(1) - 1); i < n && failed.Load() == nil && ctx.Err() == nil; i = int(next.Add(1) - 1) {
			if err := fn(i, sc); err != nil {
				e := err // escapes here, not on every unit
				failed.CompareAndSwap(nil, &e)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if err := failed.Load(); err != nil {
		return *err
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("tsdb: query: %w", err)
	}
	return nil
}
