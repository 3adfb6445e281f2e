package tsdb

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The reference for the QUERY reply is encoding/json, used here exactly as
// the server and client once used it: json.Marshal of the *Result ("ERR
// <error>" when it fails), json.Unmarshal into a fresh Result.
// testdata/reply_pr19.bin is what that server wrote for replyFixture().

func refReply(res *Result) []byte {
	b, err := json.Marshal(res)
	if err != nil {
		return []byte("ERR " + err.Error())
	}
	return b
}

func refDecode(line []byte) (*Result, error) {
	var res Result
	if err := json.Unmarshal(line, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// appendResult appends encoding/json's reply for res: the line a server
// encoding the exported Result wrote, for shapes no table holds.
func appendResult(dst []byte, res *Result) ([]byte, error) {
	b, err := json.Marshal(res)
	return append(dst, b...), err
}

// computedNaN is a NaN as arithmetic makes it, not absent.
var computedNaN = math.Float64frombits(0x7FF8000000000000)

// tableOf is res as a table, when it is one's result: every row's Values
// non-empty and keyed by columns alone. A NaN value is present, so it
// takes computedNaN's bits.
func tableOf(res *Result) (*table, bool) {
	t := &table{Measurement: res.Measurement, Columns: res.Columns, Cols: make([][]float64, len(res.Columns))}
	if res.Rows != nil {
		t.Times = []int64{}
	}
	for _, row := range res.Rows {
		n := 0
		for ci, c := range res.Columns {
			v, ok := row.Values[c]
			if !ok {
				v = absent
			} else if isAbsent(v) {
				v = computedNaN
			}
			if ok && !slices.Contains(res.Columns[:ci], c) {
				n++
			}
			t.Cols[ci] = append(t.Cols[ci], v)
		}
		if n == 0 || n != len(row.Values) {
			return nil, false
		}
		t.Times = append(t.Times, row.Time)
	}
	return t, true
}

// tableLine is the line the server writes for t, without its newline.
func tableLine(t *table) []byte {
	b, err := appendTable(nil, t)
	if err != nil {
		return []byte("ERR " + err.Error())
	}
	return b
}

// replyLine is the line the server writes for a table whose result is
// res, and encoding/json's for a shape no table holds, without its newline.
func replyLine(res *Result) []byte {
	if t, ok := tableOf(res); ok {
		return tableLine(t)
	}
	return refReply(res)
}

// refFloat is encoding/json's spelling of v, or its error text.
func refFloat(v float64) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte(err.Error())
	}
	return b
}

// FuzzAppendJSONFloat: for any bit pattern the reply's speller writes
// encoding/json's spelling, byte for byte, or fails with its error text.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range replyValues {
		f.Add(math.Float64bits(v))
	}
	for _, v := range []float64{999999.5, 1e6 + 0.5, 1e15 - 1, 1e15, 1e-4, 1e-4 + 1.0/(1<<20), 1234.625, math.NaN(), math.Inf(-1)} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		v := math.Float64frombits(b)
		got, err := appendJSONFloat([]byte("x"), v)
		if err != nil {
			got = []byte("x" + err.Error())
		}
		if want := append([]byte("x"), refFloat(v)...); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONFloat(%#x) = %q, encoding/json %q", b, got, want)
		}
	})
}

// replyNames spans every escape class of encoding/json's strings: quote,
// backslash, the short escapes, other control bytes, DEL (not escaped),
// <, > and &, invalid UTF-8 (a stray byte, a cut sequence, a surrogate's
// bytes), U+2028/U+2029, a real U+FFFD and runes of 2 to 4 bytes.
var replyNames = []string{
	"", "v", "mean(v)", "count(v)", "p99.9(_cpu0)", `q"uo\te`, "\b\f\n\r\t", "\x00\x01\x1f\x7f",
	"<a>&b", "bad\xffbyte", "cut\xe2\x80", "sur\xed\xa0\x80", "line\u2028para\u2029", "real\ufffd",
	"é ü", "€", "😀x", "zz", "\\u0041",
}

var replyValues = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-7, -1e-7, 9.99e-7, 1e-6,
	1e20, 1e21, -1e21, 123456789, 0.1, 1.0 / 3, math.MaxFloat64, -math.MaxFloat64,
	2.2250738585072014e-308, 1.5e300, 1e-300, 99.5, -2.5}

var replyTimes = []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1722000000000000000}

// genReply draws one result: nil or empty Columns and Rows, rows with nil,
// empty, partial or extra-keyed Values, repeated and wide (> 16) column
// lists; with bad set, a value JSON cannot spell now and then.
func genReply(rng *rand.Rand, bad bool) *Result {
	pick := func(p int) bool { return rng.Intn(100) < p }
	name := func() string {
		if pick(60) {
			return replyNames[rng.Intn(len(replyNames))]
		}
		return fmt.Sprintf("_cpu%d", rng.Intn(40))
	}
	value := func() float64 {
		switch {
		case bad && pick(2):
			return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		case pick(40):
			return replyValues[rng.Intn(len(replyValues))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
	}
	res := &Result{Measurement: name()}
	if !pick(5) {
		res.Columns = []string{}
		n := rng.Intn(5)
		if pick(10) {
			n = 17 + rng.Intn(8)
		}
		for i := 0; i < n; i++ {
			res.Columns = append(res.Columns, name())
		}
	}
	if pick(5) {
		return res
	}
	res.Rows = []Row{}
	for r := rng.Intn(12); r > 0; r-- {
		row := Row{Time: rng.Int63() - rng.Int63()}
		if pick(20) {
			row.Time = replyTimes[rng.Intn(len(replyTimes))]
		}
		if !pick(5) {
			row.Values = map[string]float64{}
			for _, c := range res.Columns {
				if pick(80) {
					row.Values[c] = value()
				}
			}
			for pick(10) {
				row.Values[name()] = value()
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// replyFixture is the fixed input of testdata/reply_pr19.bin: hand-made
// results for nil against empty, the float extremes and spellings, the
// time extremes, every escape class in every string position and the
// three unencodable values, then 60 drawn by genReply.
func replyFixture() []*Result {
	cols := []string{"mean(v)", "count(v)", "max(v)"}
	row := func(t int64, kv ...any) Row {
		r := Row{Time: t, Values: map[string]float64{}}
		for i := 0; i < len(kv); i += 2 {
			r.Values[kv[i].(string)] = kv[i+1].(float64)
		}
		return r
	}
	out := []*Result{
		{},
		{Measurement: "m", Columns: []string{}, Rows: []Row{}},
		{Measurement: "m", Columns: cols, Rows: []Row{{Time: 5}, {Time: 6, Values: map[string]float64{}}}},
		{Measurement: "panel", Columns: cols, Rows: []Row{
			row(math.MinInt64, "mean(v)", 0.1, "count(v)", 3.0, "max(v)", math.MaxFloat64),
			row(math.MaxInt64, "count(v)", 1.0),
			row(0, "mean(v)", 5e-324, "extra", 1e21, "count(v)", 1e-7),
		}},
	}
	for _, n := range replyNames {
		out = append(out, &Result{Measurement: n, Columns: []string{n, "v"}, Rows: []Row{row(1, n, -1.0, "v", 2.0)}})
	}
	var floats []Row
	for i, v := range replyValues {
		floats = append(floats, row(replyTimes[i%len(replyTimes)], "v", v))
	}
	out = append(out, &Result{Measurement: "floats", Columns: []string{"v"}, Rows: floats})
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		out = append(out, &Result{Measurement: "bad", Columns: []string{"v"}, Rows: []Row{row(1, "v", 1.0), row(2, "v", v)}})
	}
	// The first unencodable value in key order names the error, also when
	// its key is no column.
	out = append(out, &Result{Columns: []string{"b"}, Rows: []Row{row(1, "b", math.NaN(), "a", math.Inf(-1))}})
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 60; i++ {
		out = append(out, genReply(rng, true))
	}
	return out
}

func readReplyFixture(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "reply_pr19.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// notTables are the fixture results no table holds, by index: a row
// with nil or empty Values, or a key outside Columns. No engine makes
// them; the decoder still reads their lines (TestReplyFixtureDecodes).
var notTables = []int{2, 3, 27, 28, 29, 30, 31, 32, 33, 34, 36, 37, 39, 40, 42, 44, 46, 48, 49, 52,
	55, 56, 57, 59, 60, 63, 64, 65, 67, 70, 72, 75, 76, 77, 79, 80, 82, 83, 84, 85, 86, 87}

// TestReplyFixtureSameBytes: the server's reply to each fixture result
// that a table holds — the JSON line, or the ERR line for an unencodable
// one — encoded from the table, is byte for byte the line the
// json.Marshal-based server wrote.
func TestReplyFixtureSameBytes(t *testing.T) {
	want := bytes.SplitAfter(readReplyFixture(t), []byte("\n"))
	var skipped []int
	for i, res := range replyFixture() {
		tab, ok := tableOf(res)
		if !ok {
			skipped = append(skipped, i)
			continue
		}
		if got := append(tableLine(tab), '\n'); !bytes.Equal(got, want[i]) {
			n := 0
			for n < len(got) && n < len(want[i]) && got[n] == want[i][n] {
				n++
			}
			t.Fatalf("result %d: reply differs from the json.Marshal server's: %d bytes vs %d, first difference at offset %d: %q", i, len(got), len(want[i]), n, got[max(0, n-40):min(len(got), n+40)])
		}
	}
	if !slices.Equal(skipped, notTables) {
		t.Fatalf("results no table holds: %v, want %v", skipped, notTables)
	}
}

// TestReplyFixtureDecodes: the client reads every fixture reply back to
// what json.Unmarshal makes of it.
func TestReplyFixtureDecodes(t *testing.T) {
	lines := bytes.Split(bytes.TrimSuffix(readReplyFixture(t), []byte("\n")), []byte("\n"))
	if len(lines) != len(replyFixture()) {
		t.Fatalf("fixture has %d lines, want %d", len(lines), len(replyFixture()))
	}
	errs := 0
	for i, line := range lines {
		if bytes.HasPrefix(line, []byte("ERR ")) {
			errs++
			continue
		}
		want, err := refDecode(line)
		if err != nil {
			t.Fatalf("line %d: the reference rejects the fixture: %v", i, err)
		}
		got, err := decodeResult(line)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("line %d: decoded %+v, %v; encoding/json: %+v\n%s", i, got, err, want, line)
		}
	}
	if errs < 4 {
		t.Fatalf("fixture holds %d ERR replies, want the NaN/±Inf ones", errs)
	}
}

// TestReplyMatchesEncodingJSON: on 3 000 drawn results the encoder writes
// encoding/json's bytes (or its error text), the decoder reads them back
// to json.Unmarshal's result, and that result encodes to the same bytes.
func TestReplyMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	errs := 0
	for i := 0; i < 3000; i++ {
		res := genReply(rng, true)
		want, got := refReply(res), replyLine(res)
		if !bytes.Equal(got, want) {
			t.Fatalf("result %d: encoded\n%s\nencoding/json\n%s", i, got, want)
		}
		if bytes.HasPrefix(got, []byte("ERR ")) {
			errs++
			continue
		}
		checkDecodes(t, got)
	}
	if errs == 0 {
		t.Fatal("no drawn result held an unencodable value")
	}
	errs = 0
	for i := 0; i < 3000; i++ {
		tab := genTable(rng)
		want, got := refReply(tab.result()), tableLine(tab)
		if !bytes.Equal(got, want) {
			t.Fatalf("table %d: encoded\n%s\nencoding/json\n%s", i, got, want)
		}
		if bytes.HasPrefix(got, []byte("ERR ")) {
			errs++
		}
	}
	if errs == 0 {
		t.Fatal("no drawn table held an unencodable value")
	}
}

// genTable draws a table as the engines make them: names that may repeat
// (a repeated expression), whose columns then hold the same cells, rows
// with at least one present cell, wide (> 16) column lists now and then,
// and a computed NaN or ±Inf among the values now and then.
func genTable(rng *rand.Rand) *table {
	pick := func(p int) bool { return rng.Intn(100) < p }
	n := 1 + rng.Intn(5)
	if pick(10) {
		n = 17 + rng.Intn(8)
	}
	tab := &table{Measurement: replyNames[rng.Intn(len(replyNames))], Times: []int64{}, Cols: make([][]float64, n)}
	for range n {
		tab.Columns = append(tab.Columns, replyNames[rng.Intn(len(replyNames))])
	}
	for r := rng.Intn(12); r > 0; r-- {
		tab.Times = append(tab.Times, rng.Int63()-rng.Int63())
		present := false
		for ci, c := range tab.Columns {
			v := absent
			if j := slices.Index(tab.Columns, c); j < ci {
				v = tab.Cols[j][len(tab.Times)-1]
			} else if pick(70) || ci == n-1 && !present {
				switch {
				case pick(2):
					v = []float64{math.Inf(1), math.Inf(-1), computedNaN}[rng.Intn(3)]
				case pick(40):
					v = replyValues[rng.Intn(len(replyValues))]
				default:
					v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
				}
			}
			present = present || !isAbsent(v)
			tab.Cols[ci] = append(tab.Cols[ci], v)
		}
	}
	return tab
}

// TestPlainDecimalIsTheSpelling: a number the decoder takes as spelled
// without spelling its value again is json.Marshal's spelling of it.
func TestPlainDecimalIsTheSpelling(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	passed := 0
	for i := 0; i < 200000; i++ {
		digits := make([]byte, 1+rng.Intn(18))
		for j := range digits {
			digits[j] = byte('0' + rng.Intn(10))
		}
		s := string(digits)
		if p := rng.Intn(len(s) + 1); p < len(s) {
			s = s[:p] + "." + s[p:]
		}
		if rng.Intn(3) == 0 {
			s = "0." + strings.Repeat("0", rng.Intn(8)) + string(digits)
		}
		if rng.Intn(2) == 0 {
			s = "-" + s
		}
		if !plainDecimal([]byte(s)) {
			continue
		}
		passed++
		v, err := strconv.ParseFloat(s, 64)
		if want, _ := json.Marshal(v); err != nil || string(want) != s {
			t.Fatalf("%q passed as spelled, but encoding/json spells %v as %s", s, v, want)
		}
	}
	if passed < 20000 {
		t.Fatalf("only %d of the drawn numbers passed", passed)
	}
}

// checkDecodes holds decodeResult to its contract on a line it accepts:
// json.Unmarshal accepts it too with an equal result, and that result
// encodes to the line again (\ufffd coming back as the U+FFFD it is).
func checkDecodes(t *testing.T, line []byte) {
	t.Helper()
	got, err := decodeResult(line)
	if err != nil {
		t.Fatalf("%v\n%s", err, line)
	}
	want, err := refDecode(line)
	if err != nil {
		t.Fatalf("decoder accepted what encoding/json rejects (%v):\n%q", err, line)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, encoding/json %+v:\n%q", got, want, line)
	}
	again, err := appendResult(nil, got)
	if err != nil || !bytes.Equal(again, rawReplacement(line)) {
		t.Fatalf("decoded reply encodes to\n%q, %v; input\n%q", again, err, line)
	}
}

// rawReplacement spells each \ufffd escape of an accepted line as the
// U+FFFD it decodes to; every other byte stays.
func rawReplacement(line []byte) []byte {
	var out []byte
	for i := 0; i < len(line); i++ {
		switch {
		case bytes.HasPrefix(line[i:], []byte(`\ufffd`)):
			out = append(out, "\ufffd"...)
			i += 5
		case line[i] == '\\':
			out = append(out, line[i:i+2]...)
			i++
		default:
			out = append(out, line[i])
		}
	}
	return out
}

// FuzzQueryReply: on arbitrary bytes the decoder never panics and fails
// only with the client's bad-response error; whatever it accepts,
// json.Unmarshal accepts with an equal result, and that result encodes
// back to the input.
func FuzzQueryReply(f *testing.F) {
	for _, res := range replyFixture()[:12] {
		if b, err := appendResult(nil, res); err == nil {
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		if _, err := decodeResult(line); err != nil {
			if !strings.HasPrefix(err.Error(), "tsdb: bad query response: ") {
				t.Fatalf("error %q lacks the bad-response prefix", err)
			}
			return
		}
		checkDecodes(t, line)
	})
}

// panelReply is a dashboard panel's result: rows × one GROUP BY window
// mean each, the shape mixed_rw's quiescent statements return. Its
// values are a random walk in steps of 1/8, as the benchmark's series
// are (few significant digits, like most counters and gauges), or with
// full set a mean of several such values in all 17 digits.
func panelReply(rows int, full bool) *Result {
	rng := rand.New(rand.NewSource(int64(rows)))
	res := &Result{Measurement: "quiet_0", Columns: []string{`mean(f0)`}, Rows: make([]Row, rows)}
	v := 1000.0
	for i := range res.Rows {
		v += float64(rng.Intn(17)-8) / 8
		mean := v
		if full {
			mean = v / 3
		}
		res.Rows[i] = Row{Time: 1722000000000000000 + int64(i)*250_000_000, Values: map[string]float64{`mean(f0)`: mean}}
	}
	return res
}

// TestReplyAllocations: encoding a table allocates nothing given room;
// decoding allocates per row only that row's Values map — the floor the
// exported Row sets — plus 7 for the result: itself, its measurement, its
// columns slice and string, the decoder's string scratch, and the rows
// slice before and after it is sized from the first row.
func TestReplyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are held without the race detector")
	}
	panel := panelReply(2048, true)
	buf := make([]byte, 0, 1<<20)
	for name, res := range map[string]*Result{"2048-row panel": panel, "escaped names": replyFixture()[9]} {
		tab, ok := tableOf(res)
		if !ok {
			t.Fatalf("the %s is no table", name)
		}
		if n := testing.AllocsPerRun(20, func() { buf, _ = appendTable(buf[:0], tab) }); n != 0 {
			t.Errorf("appendTable of the %s into a buffer with room: %v allocations, want 0", name, n)
		}
	}
	perMap := testing.AllocsPerRun(20, func() {
		m := make(map[string]float64, 1)
		m["mean(f0)"] = 1
		sinkResult = &Result{Rows: []Row{{Values: m}}}
	}) - 2 // the Result and its one-row slice
	line := replyLine(panel)
	if n, want := testing.AllocsPerRun(20, func() { sinkResult, _ = decodeResult(line) }), 2048*perMap+7; n != want {
		t.Errorf("decodeResult of a 2048-row reply: %v allocations, want %v (%v per map)", n, want, perMap)
	}
}

var (
	sinkReply  []byte
	sinkResult *Result
)

// BenchmarkQueryReply: a 2 560-row panel each way — encoded from its
// table, decoded to the exported Result — beside the encoding/json path
// the wire used before, for both value shapes.
func BenchmarkQueryReply(b *testing.B) {
	for _, values := range []string{"steps", "full"} {
		panel := panelReply(2560, values == "full")
		tab, _ := tableOf(panel)
		line := replyLine(panel)
		for _, bc := range []struct {
			name string
			run  func()
		}{
			{"encode", func() { sinkReply, _ = appendTable(nil, tab) }},
			{"decode", func() { sinkResult, _ = decodeResult(line) }},
			{"json.Marshal", func() { sinkReply, _ = json.Marshal(panel) }},
			{"json.Unmarshal", func() { sinkResult, _ = refDecode(line) }},
		} {
			b.Run(bc.name+"/"+values, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					bc.run()
				}
			})
		}
	}
}

// TestWireReadersShareCachedResult: wire readers encode one cache-resident
// table at once, and embedded ExecuteContext callers build their results
// from it, while a writer invalidates it and readers refill it. Every
// reply must be the SkipCache answer at some batch boundary, embedded
// hits must be equal results of their own, and under -race any write to
// the shared table is reported.
func TestWireReadersShareCachedResult(t *testing.T) {
	db := New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	ctx := context.Background()
	stmts := []string{
		`SELECT count("v"), mean("v"), max("v") FROM "hot" GROUP BY time(8)`,
		`SELECT sum("v"), p50("v") FROM "hot"`,
		`SELECT mean("v") FROM "quiet" GROUP BY time(4)`, // never invalidated: hits only
	}
	const batches, perBatch, readers = 30, 16, 3
	write := func(meas string, b int) {
		t.Helper()
		ps := make([]Point, perBatch)
		for i := range ps {
			ts := int64(b*perBatch + i + 1)
			ps[i] = Point{Measurement: meas, Tags: map[string]string{"host": "h"}, Fields: map[string]float64{"v": float64(ts%7) - 2.5}, Time: ts}
		}
		if err := db.WriteBatchContext(ctx, ps); err != nil {
			t.Fatal(err)
		}
	}
	// boundary records every statement's uncached reply at the state the
	// last batch left.
	allowed := map[string]bool{}
	boundary := func() {
		t.Helper()
		for _, s := range stmts {
			res, err := db.ExecuteContext(ctx, QueryRequest{Statement: s, SkipCache: true})
			if err != nil {
				t.Fatal(err)
			}
			allowed[string(replyLine(res))] = true
		}
	}
	write("quiet", 0)
	write("hot", 0)
	boundary()

	done := make(chan struct{})
	progress := make(chan struct{}, readers) // one query done, per reader at most
	replies := make([][]string, 2*readers)
	var wg sync.WaitGroup
	stop := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stop()
	// Readers [0, readers) query over the wire, the rest embedded.
	for r := 0; r < 2*readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			query := func(stmt string) (*Result, error) {
				return db.ExecuteContext(ctx, QueryRequest{Statement: stmt})
			}
			if r < readers {
				c, err := DialPolicy(addr, testPolicy())
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				query = func(stmt string) (*Result, error) { return c.QueryContext(ctx, stmt) }
			}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				res, err := query(stmts[i%len(stmts)])
				if err != nil {
					t.Error(err)
					return
				}
				replies[r] = append(replies[r], string(replyLine(res)))
				select {
				case progress <- struct{}{}:
				default:
				}
			}
		}(r)
	}
	for b := 1; b <= batches; b++ {
		// Readers query between any two batches, hitting and refilling.
		for i := 0; i < readers; i++ {
			select {
			case <-progress:
			case <-time.After(10 * time.Second):
				t.Fatal("readers stopped querying")
			}
		}
		write("hot", b)
		boundary()
	}
	stop()
	n := 0
	for r := range replies {
		for _, reply := range replies[r] {
			n++
			if !allowed[reply] {
				t.Fatalf("reader %d got a reply no batch boundary gives:\n%s", r, reply)
			}
		}
	}
	if n < readers*len(stmts) {
		t.Fatalf("readers made only %d queries", n)
	}
	// Concurrent embedded hits read the one resident table, each into an
	// equal result of its own.
	first, err := db.ExecuteContext(ctx, QueryRequest{Statement: stmts[0]})
	if err != nil {
		t.Fatal(err)
	}
	var hits sync.WaitGroup
	for r := 0; r < 4; r++ {
		hits.Add(1)
		go func() {
			defer hits.Done()
			for i := 0; i < 20; i++ {
				res, err := db.ExecuteContext(ctx, QueryRequest{Statement: stmts[0]})
				if err != nil || !reflect.DeepEqual(res, first) || res == first || &res.Rows[0] == &first.Rows[0] {
					t.Errorf("hit %d: error %v, equal %v, shared %v", i, err, reflect.DeepEqual(res, first), res == first)
					return
				}
			}
		}()
	}
	hits.Wait()
}

// TestEmbeddedHitBelongsToCaller: a caller that writes into the Result of
// a cache hit — a value, a row, a column name — changes neither the
// resident table nor what the next hit or a wire reader gets.
func TestEmbeddedHitBelongsToCaller(t *testing.T) {
	db := New()
	srv, addr := startServer(t, db)
	defer srv.Close()
	ctx := context.Background()
	var ps []Point
	for i := range 64 {
		ps = append(ps, Point{Measurement: "m", Tags: map[string]string{"host": "h"},
			Fields: map[string]float64{"v": float64(i % 5)}, Time: int64(i)})
	}
	if err := db.WriteBatchContext(ctx, ps); err != nil {
		t.Fatal(err)
	}
	const stmt = `SELECT count("v"), mean("v") FROM "m" GROUP BY time(16)`
	want, err := db.ExecuteContext(ctx, QueryRequest{Statement: stmt, SkipCache: true})
	if err != nil {
		t.Fatal(err)
	}
	wantLine := string(replyLine(want))
	c, err := DialPolicy(addr, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := range 3 { // a fill, then hits
		res, err := db.ExecuteContext(ctx, QueryRequest{Statement: stmt})
		if err != nil || !reflect.DeepEqual(res, want) {
			t.Fatalf("execution %d: %+v, %v; want %+v", i, res, err, want)
		}
		res.Rows[0].Values["mean(v)"] = -1
		delete(res.Rows[1].Values, "count(v)")
		res.Rows[2].Time = 7
		res.Rows = res.Rows[:1]
		res.Columns[0] = "scribbled"
		got, err := c.QueryContext(ctx, stmt)
		if err != nil || string(replyLine(got)) != wantLine {
			t.Fatalf("wire reader after write %d: %+v, %v; want\n%s", i, got, err, wantLine)
		}
	}
}

// TestNonFiniteAggregateAtTheEdges: an aggregate that overflows is a
// value. Two values of 1.7e308 sum to +Inf, and a series summing to
// +Inf beside one summing to -Inf merges to NaN. The embedded caller
// gets each in its Result; a wire reader gets encoding/json's error
// for the value, as an ERR reply.
func TestNonFiniteAggregateAtTheEdges(t *testing.T) {
	db := New()
	ctx := context.Background()
	var ps []Point
	for i, v := range []float64{1.7e308, 1.7e308, -1.7e308, -1.7e308} {
		host := []string{"up", "down"}[i/2]
		ps = append(ps, Point{Measurement: "m", Tags: map[string]string{"host": host},
			Fields: map[string]float64{"v": v}, Time: int64(i + 1)})
	}
	if err := db.WriteBatchContext(ctx, ps); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, db)
	defer srv.Close()
	c, err := DialPolicy(addr, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		stmt, text string
		isWant     func(float64) bool
	}{
		{`SELECT sum("v") FROM "m" WHERE host = 'up'`, "+Inf", func(v float64) bool { return math.IsInf(v, 1) }},
		{`SELECT sum("v") FROM "m"`, "NaN", math.IsNaN},
	} {
		for pass := 0; pass < 2; pass++ { // a fill, then a hit
			res, err := db.ExecuteContext(ctx, QueryRequest{Statement: tc.stmt})
			if err != nil || len(res.Rows) != 1 {
				t.Fatalf("%s: embedded %+v, %v; want one row", tc.stmt, res, err)
			}
			if v, ok := res.Rows[0].Values[`sum(v)`]; !ok || !tc.isWant(v) {
				t.Fatalf("%s: embedded sum %v (present %v), want %s", tc.stmt, v, ok, tc.text)
			}
			_, err = c.QueryContext(ctx, tc.stmt)
			if want := "ERR json: unsupported value: " + tc.text; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: wire error %v, want one holding %q", tc.stmt, err, want)
			}
		}
	}
}

// TestEmptyRowsNullOrEmpty: a result without rows keeps the shape it had
// as rows of maps. An aggregate whose windows hold no value of its field
// has Rows null; a raw scan whose candidate rows all lack the field has
// Rows [], embedded and on the wire.
func TestEmptyRowsNullOrEmpty(t *testing.T) {
	db := New()
	ctx := context.Background()
	ps := []Point{
		{Measurement: "m", Fields: map[string]float64{"a": 1, "x": 2}, Time: 1},
		{Measurement: "m", Fields: map[string]float64{"a": 1}, Time: 2},
		{Measurement: "m", Fields: map[string]float64{"a": 1}, Time: 3},
	}
	if err := db.WriteBatchContext(ctx, ps); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, db)
	defer srv.Close()
	c, err := DialPolicy(addr, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for stmt, rows := range map[string]string{
		`SELECT mean("x") FROM "m" WHERE time >= 2 GROUP BY time(1)`: `"Rows":null`,
		`SELECT "x" FROM "m" WHERE time >= 2`:                        `"Rows":[]`,
	} {
		res, err := db.ExecuteContext(ctx, QueryRequest{Statement: stmt})
		if err != nil || len(res.Rows) != 0 || (res.Rows == nil) != (rows == `"Rows":null`) {
			t.Fatalf("%s: embedded %+v, %v; want %s", stmt, res, err, rows)
		}
		got, err := c.QueryContext(ctx, stmt)
		if err != nil || !strings.Contains(string(replyLine(got)), rows) {
			t.Fatalf("%s: wire %+v, %v; want %s", stmt, got, err, rows)
		}
	}
}
