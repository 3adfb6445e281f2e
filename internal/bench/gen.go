package bench

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"time"

	"pmove/internal/dashboard"
	"pmove/internal/tsdb"
)

// Everything the program under test sees is generated here from the
// seed: rows, batches and statements. The generator keeps its own copy
// of every row it emits (refStore, ref.go) so results can be checked
// against a fold the store had no part in.

// rng is splitmix64: tiny, seedable, and splittable into independent
// streams so each writer goroutine draws its own deterministic sequence.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream ...uint64) *rng {
	r := &rng{s: seed}
	for _, x := range stream {
		r.s = r.next() ^ (x+1)*0x9e3779b97f4a7c15
	}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

const (
	nFields = 8
	// blockRows mirrors the store's seal threshold (tsdb's unexported
	// blockRows): the generator aligns timestamps to it so that "a window
	// covering whole blocks" is something a statement can ask for.
	blockRows = 4096
	timeStep  = int64(time.Millisecond)
	blockSpan = blockRows * timeStep
	// timeBase is a multiple of every GROUP BY width the generator uses,
	// so row i of a series sits in block i/blockRows and that block's
	// rows share one aligned window.
	timeBase = 1024 * blockSpan
)

var fieldNames = [nFields]string{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"}

// opDigest hashes the op stream (rows and statements) so two runs can be
// shown to have fed the program the same inputs. A nil digest is off.
type opDigest struct {
	h   hash.Hash64
	buf [8]byte
}

func newOpDigest() *opDigest { return &opDigest{h: fnv.New64a()} }

func (d *opDigest) u64(v uint64) {
	if d == nil {
		return
	}
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *opDigest) str(s string) {
	if d == nil {
		return
	}
	d.h.Write([]byte(s))
	d.h.Write([]byte{0})
}

func (d *opDigest) point(p *tsdb.Point) {
	if d == nil {
		return
	}
	d.str(p.Measurement)
	d.str(p.Tags["tag"])
	d.u64(uint64(p.Time))
	// Field order must not depend on map iteration.
	for _, f := range fieldNames {
		d.u64(math.Float64bits(p.Fields[f]))
	}
}

func (d *opDigest) sum() string {
	if d == nil {
		return ""
	}
	return strconv.FormatUint(d.h.Sum64(), 16)
}

// newPointBuf allocates n reusable rows of one series. The store copies
// what it keeps (values into columns, tags on series creation), so the
// generator overwrites the same maps batch after batch and the timed
// section sees no generator garbage.
func newPointBuf(n int, meas, tag string) []tsdb.Point {
	tags := map[string]string{"tag": tag}
	pts := make([]tsdb.Point, n)
	for i := range pts {
		f := make(map[string]float64, nFields)
		for _, name := range fieldNames {
			f[name] = 0
		}
		pts[i] = tsdb.Point{Measurement: meas, Tags: tags, Fields: f}
	}
	return pts
}

// seriesGen emits the rows of one series in arrival order. Values are a
// bounded random walk in steps of 1/8, so every sum the store or the
// reference can form is exact in float64 whatever the association — the
// correctness check compares for equality, not within a tolerance that
// could hide a dropped row.
type seriesGen struct {
	ref    *refSeries
	rng    *rng
	row    int64
	vals   [nFields]float64
	oooPct int // share of rows that arrive before an earlier-timestamped neighbour
	dupPct int // share of rows that repeat the previous row's timestamp
}

func newSeriesGen(seed uint64, ref *refSeries, oooPct, dupPct int) *seriesGen {
	g := &seriesGen{ref: ref, rng: newRNG(seed), oooPct: oooPct, dupPct: dupPct}
	for i := range g.vals {
		g.vals[i] = float64(1000 + 100*i + g.rng.intn(64))
	}
	return g
}

// fill overwrites pts with the series' next len(pts) rows, records them
// in the reference (if there is one) in arrival order and feeds the digest.
func (g *seriesGen) fill(pts []tsdb.Point, d *opDigest) {
	for i := range pts {
		t := timeBase + g.row*timeStep
		if g.row > 0 && g.rng.intn(100) < g.dupPct {
			// The duplicate takes the previous slot's timestamp and the
			// next row carries on from its own index, so row index and
			// block alignment are undisturbed.
			t -= timeStep
		}
		g.row++
		pts[i].Time = t
		for fi, name := range fieldNames {
			v := g.vals[fi] + float64(g.rng.intn(17)-8)/8
			if v < 0 {
				v = 0
			} else if v > 8192 {
				v = 8192
			}
			g.vals[fi] = v
			pts[i].Fields[name] = v
		}
	}
	if g.oooPct > 0 {
		for i := 1; i < len(pts); i++ {
			if g.rng.intn(100) < g.oooPct {
				// Arrival order changes, timestamps stay: the earlier row
				// now lands after up to 16 later ones, inside the head.
				k := 1 + g.rng.intn(16)
				if k > i {
					k = i
				}
				pts[i], pts[i-k] = pts[i-k], pts[i]
			}
		}
	}
	for i := range pts {
		if g.ref != nil {
			g.ref.add(&pts[i])
		}
		d.point(&pts[i])
	}
}

// batchSource generates one series batch after batch into one reused
// buffer of rows.
type batchSource struct {
	gen *seriesGen
	buf []tsdb.Point
}

// newBatchSource makes a source of rows-row batches of series (meas,
// tag). ref, when not nil, receives every row generated.
func newBatchSource(seed uint64, ref *refSeries, meas, tag string, rows, oooPct, dupPct int) *batchSource {
	return &batchSource{gen: newSeriesGen(seed, ref, oooPct, dupPct), buf: newPointBuf(rows, meas, tag)}
}

func (b *batchSource) next(d *opDigest) []tsdb.Point {
	b.gen.fill(b.buf, d)
	return b.buf
}

// agg is one aggregate column of a statement.
type agg struct {
	fn    string // mean, min, max, sum, count, or pNN
	field string
}

func (a agg) column() string { return a.fn + "(" + a.field + ")" }

// stmt is a generated SELECT: the generator renders it for the program
// and evaluates it itself over the reference, never through the
// program's parser.
type stmt struct {
	class    string
	meas     string
	tag      string // "" = every series of the measurement
	aggs     []agg
	fields   []string // raw SELECT columns (aggs empty)
	from, to int64    // inclusive ns bounds, 0 = unbounded
	groupBy  int64    // ns, 0 = one row for the whole range
	// viaDashboard routes the statement through dashboard.FetchSeriesContext
	// (only statements a panel target can express: one aggregate, no bounds).
	viaDashboard bool
}

func (s *stmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, a := range s.aggs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s(%q)", a.fn, a.field)
	}
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q", f)
	}
	fmt.Fprintf(&b, " FROM %q", s.meas)
	var conds []string
	if s.tag != "" {
		conds = append(conds, fmt.Sprintf("tag=%q", s.tag))
	}
	if s.from != 0 {
		conds = append(conds, fmt.Sprintf("time >= %d", s.from))
	}
	if s.to != 0 {
		conds = append(conds, fmt.Sprintf("time <= %d", s.to))
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE " + strings.Join(conds, " AND "))
	}
	if s.groupBy > 0 {
		fmt.Fprintf(&b, " GROUP BY time(%s)", time.Duration(s.groupBy))
	}
	return b.String()
}

// target is the panel target equivalent of a viaDashboard statement.
func (s *stmt) target() dashboard.Target {
	t := dashboard.Target{Measurement: s.meas, Params: s.aggs[0].field, Tag: s.tag, Agg: s.aggs[0].fn}
	if s.groupBy > 0 {
		t.Window = time.Duration(s.groupBy).String()
	}
	return t
}

// pickRange draws a time range of spanRows rows (at most half the
// series, so small -scale runs still get a partial range) that starts
// off the block grid.
func pickRange(r *rng, rows, spanRows int64) (from, to int64) {
	if spanRows > rows/2 {
		spanRows = rows / 2
	}
	if spanRows < 1 {
		spanRows = 1
	}
	from = timeBase + int64(1+r.intn(int(rows-spanRows)))*timeStep
	return from, from + spanRows*timeStep
}

var foldFns = []string{"sum", "count", "mean", "min", "max"}
var pctlFns = []string{"p50", "p90", "p95", "p99"}

// dashStatements builds dash_cold's working set: n distinct statements
// over series of `blocks` sealed blocks plus a live head, in the class
// mix the issue fixes (30 % footer-foldable, 30 % decode-forcing, 15 %
// percentile, 15 % raw, 10 % head-only), shuffled by seed. About half
// are expressible as panel targets and go through the dashboard package.
func dashStatements(r *rng, n int, measurements, tags []string, blocks int, rows int64) []*stmt {
	end := timeBase + rows*timeStep
	headStart := timeBase + int64(blocks)*blockSpan
	pickTag := func(allowAll bool) string {
		k := len(tags)
		if allowAll {
			k++
		}
		if i := r.intn(k); i < len(tags) {
			return tags[i]
		}
		return ""
	}
	gens := []struct {
		class string
		share int // per cent
		make  func(i int) *stmt
	}{
		{"footer", 30, func(int) *stmt {
			widths := []int64{0, blockSpan, 2 * blockSpan, 4 * blockSpan}
			return &stmt{
				meas: measurements[r.intn(len(measurements))], tag: pickTag(true),
				aggs:    []agg{{foldFns[r.intn(len(foldFns))], fieldNames[r.intn(nFields)]}},
				groupBy: widths[r.intn(len(widths))], viaDashboard: true,
			}
		}},
		{"decode", 30, func(i int) *stmt {
			s := &stmt{
				meas: measurements[r.intn(len(measurements))], tag: pickTag(true),
				aggs: []agg{{foldFns[r.intn(len(foldFns))], fieldNames[r.intn(nFields)]}},
			}
			if i%2 == 0 {
				// Narrow windows that no block fits inside, whole range.
				s.groupBy = int64(500+r.intn(3000)) * timeStep
				s.viaDashboard = true
				return s
			}
			// A misaligned partial range across one to three blocks.
			s.from, s.to = pickRange(r, rows, blockRows+int64(r.intn(2*blockRows)))
			s.groupBy = int64(300+r.intn(1500)) * timeStep
			return s
		}},
		{"pctl", 15, func(i int) *stmt {
			s := &stmt{
				meas: measurements[r.intn(len(measurements))], tag: pickTag(true),
				aggs: []agg{{pctlFns[r.intn(len(pctlFns))], fieldNames[r.intn(nFields)]}},
			}
			if i%2 == 0 {
				s.groupBy = []int64{0, 4 * blockSpan}[r.intn(2)]
				s.viaDashboard = true
				return s
			}
			s.from, s.to = pickRange(r, rows, 2*blockRows+int64(r.intn(blockRows)))
			return s
		}},
		{"raw", 15, func(int) *stmt {
			n := int64(256 + r.intn(1024))
			to := end - int64(r.intn(blockRows))*timeStep
			f1 := r.intn(nFields)
			return &stmt{
				meas: measurements[r.intn(len(measurements))], tag: pickTag(false),
				fields: []string{fieldNames[f1], fieldNames[(f1+1+r.intn(nFields-1))%nFields]},
				from:   to - n*timeStep, to: to,
			}
		}},
		{"head", 10, func(int) *stmt {
			return &stmt{
				meas: measurements[r.intn(len(measurements))], tag: pickTag(true),
				aggs:    []agg{{foldFns[r.intn(len(foldFns))], fieldNames[r.intn(nFields)]}},
				from:    headStart + int64(r.intn(256))*timeStep,
				groupBy: int64(50+r.intn(400)) * timeStep,
			}
		}},
	}
	var out []*stmt
	seen := map[string]bool{}
	for gi, g := range gens {
		want := n * g.share / 100
		if gi == len(gens)-1 {
			want = n - len(out)
		}
		for i, made := 0, 0; made < want; i++ {
			s := g.make(i)
			s.class = g.class
			if key := s.String(); !seen[key] {
				seen[key] = true
				out = append(out, s)
				made++
			}
		}
	}
	order := r.perm(len(out))
	shuffled := make([]*stmt, len(out))
	for i, j := range order {
		shuffled[i] = out[j]
	}
	return shuffled
}

// verifyPanel is the set of statements that must agree with the
// reference after an ingest, a WAL replay and a snapshot load: every
// aggregate function, a windowed fold, a partial range and a raw range,
// over out-of-order and duplicate-timestamp rows.
func verifyPanel(meas, tag string, rows int64) []*stmt {
	end := timeBase + rows*timeStep
	mid := timeBase + rows/2*timeStep
	one := func(fn, field string) []agg { return []agg{{fn, field}} }
	return []*stmt{
		{class: "verify", meas: meas, aggs: one("count", "f0")},
		{class: "verify", meas: meas, tag: tag, aggs: one("sum", "f1")},
		{class: "verify", meas: meas, aggs: one("min", "f2")},
		{class: "verify", meas: meas, aggs: one("max", "f3")},
		{class: "verify", meas: meas, aggs: one("mean", "f4")},
		{class: "verify", meas: meas, aggs: one("p50", "f5")},
		{class: "verify", meas: meas, aggs: one("p99", "f6")},
		{class: "verify", meas: meas, aggs: []agg{{"count", "f7"}, {"mean", "f0"}}, groupBy: blockSpan},
		{class: "verify", meas: meas, aggs: one("sum", "f7"), from: mid - 777*timeStep, to: mid + 3001*timeStep, groupBy: 640 * timeStep},
		{class: "verify", meas: meas, tag: tag, fields: []string{"f0", "f5"}, from: end - 700*timeStep, to: end},
	}
}
