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
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The reference for the QUERY reply is encoding/json, used here exactly as
// the parent commit's server and client used it: json.Marshal of the
// *Result ("ERR <error>" when it fails), json.Unmarshal into a fresh Result.
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

// replyLine is the line the server writes for res, without its newline.
func replyLine(res *Result) []byte {
	b, err := appendResult(nil, res)
	if err != nil {
		return []byte("ERR " + err.Error())
	}
	return b
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

// TestReplyFixtureSameBytes: the server's reply to each fixture result —
// the JSON line, or the ERR line for an unencodable one — is byte for byte
// what the parent's json.Marshal-based server wrote.
func TestReplyFixtureSameBytes(t *testing.T) {
	want := readReplyFixture(t)
	var got []byte
	for _, res := range replyFixture() {
		got = append(append(got, replyLine(res)...), '\n')
	}
	if !bytes.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Fatalf("replies differ from the PR 19 server's: %d bytes vs %d, first difference at offset %d: %q", len(got), len(want), n, got[max(0, n-40):min(len(got), n+40)])
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

// TestReplyAllocations: encoding allocates nothing given room; decoding
// allocates per row only that row's Values map — the floor the exported
// Row sets — plus 7 for the result: itself, its measurement, its columns
// slice and string, the decoder's string scratch, and the rows slice
// before and after it is sized from the first row.
func TestReplyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are held without the race detector")
	}
	panel := panelReply(2048, true)
	buf := make([]byte, 0, 1<<20)
	for name, res := range map[string]*Result{"2048-row panel": panel, "escaped names": replyFixture()[9]} {
		if n := testing.AllocsPerRun(20, func() { buf, _ = appendResult(buf[:0], res) }); n != 0 {
			t.Errorf("appendResult of the %s into a buffer with room: %v allocations, want 0", name, n)
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

// BenchmarkQueryReply: a 2 560-row panel each way, beside the
// encoding/json path the wire used before, for both value shapes.
func BenchmarkQueryReply(b *testing.B) {
	for _, values := range []string{"steps", "full"} {
		panel := panelReply(2560, values == "full")
		line := replyLine(panel)
		for _, bc := range []struct {
			name string
			run  func()
		}{
			{"encode", func() { sinkReply, _ = appendResult(nil, panel) }},
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
// result at once while a writer invalidates it and readers refill it. Every
// reply must be the SkipCache answer at some batch boundary, and under
// -race any write to a shared result is reported.
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
	replies := make([][]string, readers)
	var wg sync.WaitGroup
	stop := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stop()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := DialPolicy(addr, testPolicy())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				res, err := c.QueryContext(ctx, stmts[i%len(stmts)])
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
}
