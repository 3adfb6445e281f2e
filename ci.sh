#!/bin/sh
# Tier-1 gate: formatting, vet, build, and the full test suite twice:
# under the race detector, and with coverage. Run from the repo root;
# exits non-zero on any failure.
# Performance is not gated here: the repository's benchmark is
# `go run ./cmd/pmovebench` (see internal/bench/README.md), whose harness
# the test pass below already smokes through `go test ./internal/bench`.
set -eu

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...

# Two passes over every test, each with one of the two instrumentations:
# the race detector and atomic coverage counters each multiply the cost
# of the codecs' bit loops, and together they took internal/tsdb 300 to
# 376 s on 2 vCPUs (go1.24.0), over half of go test's 10-minute package
# timeout, where -race alone took 101 to 109 s and coverage alone 36 to
# 44 s. The -race pass checks concurrency.
# The race detector allocates on its own account and drops pooled
# objects at random, so the allocation pins skip their counts under it
# and hold them in the coverage pass. Each pass prints its wall time,
# the figure TESTING.md's budget is stated in; it is reported, not
# gated, since a gate on time would be flaky.
pass_start=$(date +%s)
go test -race -count=1 ./...
echo "test pass: -race $(($(date +%s) - pass_start)) s"
pass_start=$(date +%s)
go test -count=1 -coverprofile=coverage.out -covermode=atomic ./...
echo "test pass: coverage $(($(date +%s) - pass_start)) s"

# Coverage floor: the total must not regress below the baseline recorded
# when the test substrate landed (measured 81.8% when the columnar
# storage engine landed; floor set with a small drift allowance). Raise
# the floor when coverage grows, never lower it.
coverage_floor=81.0
total=$(go tool cover -func=coverage.out | awk '/^total:/ { gsub(/%/, "", $NF); print $NF }')
rm -f coverage.out
echo "coverage: total ${total}% (floor ${coverage_floor}%)"
if ! awk -v t="$total" -v f="$coverage_floor" 'BEGIN { exit (t + 0 >= f + 0) ? 0 : 1 }'; then
    echo "coverage gate: total ${total}% fell below the ${coverage_floor}% floor" >&2
    exit 1
fi

# Size ratchet: aim 2 of the ROADMAP expects net-negative diffs, so the
# largest package's non-test line count is printed beside the coverage
# and may not grow past the ceiling. Lower the ceiling when code goes;
# raise it only with the reason in the PR. (3 954 when the lock stripes
# and the auto-batcher were deleted; +78 in PR 15: the word-wise bit
# reader and writer, the run-wise fold and the ordered partial merge
# cost more lines than the per-byte reader, the window map, its merge
# and the result sort gave back, for 1.8x on dash_cold. +209 in PR 16,
# over the +60 its issue allowed and said so in CHANGES.md: the row
# scanner with its canonical-form and ascending-key checks, the row
# types and their pooled scratch, the point-to-row adaptor, the ingest
# counters and ErrLineBreak cost more than scanLine, the map insert, the
# second key sort and replay's []Point staging gave back, for 1.4x on
# live_monitor and 1.25x on mixed_rw. -173 when the server's accept
# loop, connection set, settings and slow-op log moved to internal/wire.
# +418 for ISSUE 25, over the +350 its issue allowed and said so in
# CHANGES.md: reply.go, the QUERY reply's encoder and one-pass decoder —
# strict about every number and escape spelling so a decoded reply
# encodes back to its bytes, with a check that spares a short decimal
# a second spelling — in place of encoding/json, whose
# reflection, deep copy and decode were most of a wire reader's CPU.
# +260 for the open head, over its +150 budget and said so in
# CHANGES.md: the open block a head compresses into on append — its
# per-field running footer and gap-free bitmap, the side run for late
# rows and its merge into scan order, the reader that decodes a head
# without writing to it — and version-stamped query-cache entries, which
# a write leaves stale instead of freeing, cost more than colHead's
# shift-insert, encodeBlock's per-field body, adoptHead's decode loop,
# CountValues' head scan and headSlots gave back, for live_monitor's
# heap 13.9 -> 2.4 B/point. -167 when the open block became a block to
# every reader: one unit list and one unit decode in place of the head's
# second read path in each engine, retention and snapshot load, and the
# cached result shared instead of copied. -3 when storage.Store took
# the closed/crashed lifecycle over from tsdb and docdb, and their
# dead seq counters and Retention accessor went, net of the WRITEB
# server's in-flight token claim. +90 when the embedded write took the
# wire path's rows: number.go's exact-digit speller, the two spare
# rowBufs with their clearing put, the in-place key sort and the client's
# shared key scratch cost more than the second pointRow, the separate
# Validate pass, walRecord's callback, linesSizeHint and the frame's
# separator count gave back, for +52 % bulk_ingest ops_per_s (medians,
# 10 pairs): the spares +19 % of it over a per-batch scratch, the
# speller +15 % over strconv. +68 when a scan came to decode only what
# its fold reads: decodeValues split from decodeField so a percentile
# over a footer-folded unit decodes values without times, placeSamples
# with its second pool pass that decodes those values in place into
# buffers made once at the merged counts, runUnits (the pool sized to
# the units that decode, the caller's goroutine one of its workers),
# the pooled scan scratch and the tick-run fill in decodeTimes cost
# more than the sequential path's separate loop, the error mutex and
# the merge's sample append gave back, for dash_cold ops_per_s
# +25 % in medians, 9 of 10 pairs (percentile statements 48 % cheaper).
# -16 when WRITEB became the wire's only write: the one-line WRITE verb
# and its span family gone, and the retry dedup's two structures — the
# applied-token window and the in-flight map beside it — one token table
# under one lock. +59 when the query cache came to keep what is costly
# to recompute: each entry's decode work per retained cell, its aging
# priority and recency stamp, the one-pass victim rank with stale
# entries first, the refusal of a newcomer that ranks lowest, the
# per-scan cell tally and its two counters cost more than
# container/list and the footer units' own partials, now folded at
# merge time, gave back, for dash_cold ops_per_s +28 % in medians, 10
# of 10 pairs, and its heap 2.58 -> 2.47 B/point. +14 when a batch came
# to read each point's fields in the key order of the row before it:
# the lookups, their fallback to the sort and the order batchBody and
# WriteBatchContext pass along cost more than the per-row field sort
# they skip gave back, for live_monitor ops_per_s +25 % in medians, 10
# of 10 pairs, with telemetry's copy of each sample's map gone. +36
# when a WRITEB body came to live in a pooled frame buffer at both ends
# of the wire, within the +40 its change allowed: the buffer type with
# its pool and capped put, the client's frame appended in it, header
# then body, and the server's in-place row scan over the body cost more
# than the presized body, the fmt-built frame and the per-line strings
# gave back, for a harness-shaped live_monitor tick allocating
# 74.1 -> 36.0 KB over 250 ticks and 111.8 -> 46.4 KB over 5 000, with
# the head-decode scratch grown geometrically. +22 when a batch came to
# land in time order, over the +15 its change allowed and said so in
# CHANGES.md: the stable sort of a permutation kept in the batch's
# scratch, the pass that creates a batch's new series in arrival order
# (without it equal-time rows across series would scan in another
# order) and the written-measurements scratch cost more than the
# per-batch slice gave back, for bulk_ingest ops_per_s +24 % in medians,
# 10 of 10 pairs, and its heap 2.96 -> 2.20 B/point: no seal re-encodes
# a head for disorder that never left its batch. +146 when the server
# came to own its connections and internal/wire went: the listener, the
# accept loop with its close-vs-accept rule, the connection set, the scan
# loop with its in-place "line too long", the settings, the slow-op log
# and the drain-then-sync Close came back from the 213-line skeleton
# without its Proto, its three callbacks and the alias that embedded it,
# net of PingContext's copy of the resync probe's exchange (-11). +24
# when the query cache stopped walking maps, within the +25 its change
# allowed: the entries' slice beside the key map, each entry's index and
# its measurement's version cell, and one walk that sweeps the stale and
# ranks the victim cost less than victimLocked and the per-measurement
# sets gave back (-5); the per-window partials made once at the windows
# their rows can touch (windowsIn, +21), the client's kept reply buffer
# read with ReadSlice under a 1 MiB cap (+9) and Query.String's appends
# in place of fmt (-1) cost the rest, for BenchmarkQueryCacheFill
# 11 -> 1.5 us, TestServerQueryAllocations 27 -> 16 objects and an
# uncached panel refresh 104 -> 61. -5 when BatchError lost Applied,
# which was always 0 and read by no caller. +319 when the client came
# to own its connection and resilience.Transport went, within the +320
# its change allowed: the retry loop, the breaker's use, the dial with
# its PING resync, the per-Read/Write deadlines, the fault counters,
# the span and metric names rendered once and the batch token appended
# into the frame moved in from transport.go and token.go, without the
# Wire, the Permanent wrapper, the probe callback and the test-swappable
# clock; the WRITEB ack appended in place of fmt cost +3 of it. +126
# when results came to stay columns until the embedded API, over the +80
# its change allowed, as CHANGES.md says: the table type with its absent
# cell, its constructor and the one place it becomes the exported Result
# (+50), DB.SeriesContext for a panel's one column and the
# execute/ExecuteContext split (+36), the table encoder with its keys
# sorted and escaped once per result, net of the map encoder it replaced
# (+22), the speller's exact-decimal core split out for the reply's
# numbers (+11) and the statement sent as written in a pooled frame (+9)
# cost more than the engines' per-row maps gave back (-2), for dash_cold
# heap 2.46 -> 2.29 B/point (10 of 10 pairs) and a full cache's rows
# 354 -> 106 KB. -75 when late rows came to go into the open block in
# arrival order, over the -89 its change asked for, as CHANGES.md says:
# the side run with its shift insert, mergeTimes, mergeCol, unit.side
# and unit.minT, CountValues' cell scan, the headRows and headBytes
# wrappers and the percentile's sort below 64 samples went; sortRows,
# the natural merge sort an unsorted head's rows take at read and seal,
# cost +44 over a comparison sort, for a restarted clock's head read
# 4.2x -> 1.9x the side run's and the descending late lane's 2.1x ->
# 1.8x.)
# The second line is the same ratchet over all non-test Go outside the
# benchmark's frozen paths (BENCHMARK.json "paths"): 26 312 before the
# two wire servers became one skeleton (internal/wire), 26 222 after,
# 26 640 with the reply codec, 26 903 with the open head, 26 736 with
# one reader for sealed and open blocks, 26 650 with one durable
# lifecycle: the stores' closed flags and lock-and-nil-check methods,
# RewriteWAL, the sync-interval setters, IsTorn and the unread Store
# accessors gone, and the spill journal a Store; 26 689 (+39) with
# docdb's document walker, which copies a document structurally where
# Clone re-parsed it through JSON (1.7x on a probe), and its
# ErrUnencodable in place of the panic: net of Clone's round trip,
# SetField's inline one, Compact's per-document copy and the filter's
# jsonEqual/toFloat, which the walker's normal form replaces; 26 682
# (-7) when the KB became written by id and grew by entries: Persist's
# delete-and-reinsert, docdb's insertb op with InsertBatchContext, the
# unused FromJSON and three copies of the document write path (now one
# put, where the store's depth bound is enforced) gone, net of the KB's
# written-entries mark, the probe's adoption of stored entries and
# nextTag's resume past their tags; 26 772 (+90) with the embedded
# write's rows once, all of it in internal/tsdb (above); 26 432 (-340)
# with one name per job: resilience's second fault injector (FaultConn,
# FaultListener) with Proxy.SetFaults and NoRetry, the daemon options
# that duplicated WithEnv and SetTelemetrySink, the self-metrics prefix
# setting (pmove.self is now a constant), the uncalled self-export hooks
# (Snapshot.Delta, ExportAttribution, Collector.AddSpans,
# SpanIDFromContext), dashboard.FetchSeries and 25 facade names gone;
# 26 498 (+66) with the scan that decodes only what its fold reads (+68,
# above), net of the dashboard's select-all series read, which reads
# the result's first column instead of a map's first entry (-2); 26 397
# (-101) with one write frame and one summary path: the WRITE verb and
# resilience.DedupWindow (-16 in internal/tsdb, above, -54 in
# resilience) and superdb's client-side summary fold (-31): aggregate,
# its quantile and the per-field fold, a star list now summarised by the
# engine over the raw result's columns; 26 097 (-300) with one SUPERDB:
# SUPERDB's test-only wire client, its dialers and the cluster's report
# over it gone, with the BatchWriter-and-callback helper it shared with
# the embedded store, now ReportObservation's own body, and each daemon
# op one function instead of a wrapper around a private twin; 26 156
# (+59) with the query cache that keeps what is costly to recompute, all
# of it in internal/tsdb (above); 25 711 (-445) with one wire protocol:
# the document store is embedded only, so docdb's TCP server, its
# request/response frames, its resilient client, DB.Sync and
# DB.Collections (whose only caller was that server), cmd/superdb's
# -docs listener and the chaos harness's docdb leg (checkpoints, four
# fault kinds, their oracle) are gone; 25 854 (+143) with the WAL's zero
# extent, all but the -9 of docdb's unused Collection.FindOne in
# internal/storage (+142) and testkit (+10): the logical end kept apart
# from the file's length, the extension out to a doubling grid from a
# static zero page, the failed write's residue, the fdatasync helper,
# recovery's zero-length end and zero-tailed torn frame, and the
# torn-tail fault finding the logical end, for mixed_rw ops_per_s +23 %
# and +35 % in medians over two sets of 10 pairs, 10 of 10 each (an
# always ack pays an fdatasync, not an fsync); 25 862 (+8) with one key
# order per batch (+14 in internal/tsdb, above), net of telemetry.ToPoint's
# copy of the sample's map (-4) and storage's open-time copies of the
# records and the snapshot (-2); 25 910 (+48) with the pooled frame
# buffers (+36 in internal/tsdb, above) and the collector's measurement
# names and tag map made once instead of every tick (+12 in telemetry,
# over the +10 its change allowed: the tag map's rule, tagMap, is one
# function that ToPoint and the collector share); 25 932 (+22) with the
# time-ordered batch (+22 in internal/tsdb, above), storage.AppendRecord
# building its frame in place at no line cost; 25 865 (-67) with one
# TCP server and no skeleton under it: internal/wire gone (-213), its
# rules owned by tsdb's server (+146 in internal/tsdb, above); 25 712
# (-153) when the document store came to do what its callers do, all of
# it in internal/docdb (614 -> 461): Insert, Replace, SetField, Delete,
# Count, the Exists and Prefix filters, the id generator and the
# setfield and delete WAL ops gone, every write an Upsert by _id logged
# as one record shape; parseGroupBy's all-digit check net 0; 25 734
# (+22) with the query cache that walks no map (+24 in internal/tsdb,
# above), net of docdb's record id, which repeated the document's _id
# (-2); 25 671 (-63) with the exports nothing called: BatchError.Applied,
# always 0 (-5 in internal/tsdb, above), Registry.PMUs, Roof.IsCompute,
# carm.ConstructAll, jsonld.Store.Subjects, ontology.MustDTMI and
# ResourceUsage.AddNet with the net and disk counters nothing wrote;
# 25 574 (-97) with one wire client and no transport under it:
# resilience.Transport, Wire, Permanent, NextOpToken and the duration
# stats only a test read gone (-416 in internal/resilience, which no
# longer imports introspect or logbuf), their work owned by tsdb's
# client (+319 in internal/tsdb, above); 25 686 (+112) with results
# that stay columns until the embedded API (+126 in internal/tsdb,
# above), net of the dashboard's row walk, now DB.SeriesContext (-14);
# 25 611 (-75) with one head and one append path, all of it in
# internal/tsdb (above); 25 431 (-180) with an observability plane fixed
# when it is built: expose.NewServer takes the registry, labels, log
# ring and checks, so its five setters, their mutex and snapshotConfig
# went, with the runtime sampler's goroutine (the runtime is sampled
# where it is read: each render and the daemon's self-export), Source,
# SourceFor and the multi-source loops, core.WithLogBuffer and the log
# ring's minimum level; the QUERY reply encoded into a pooled frame
# cost internal/tsdb nothing; 25 337 (-94) with one fault stack: the
# chaos and trace studies run as testkit scenarios, so their hand-built
# server, proxy, client, collector, session, introspectors, chaosPolicy
# and phase loops went (-113 in internal/experiments), with
# Scenario.DataDir and Collector.DB and its sink() fallback, net of
# testkit's root span, Result fields and per-tick attribution oracle
# (+11 in testkit), Session.TickContext, which keeps the closing replay
# to the last tick (+7 in telemetry with Collector.DB gone), and
# openCollector's nil check.
size_gate() { # $1: what is counted; $2: ceiling; stdin: the files
    size=$(xargs cat | wc -l)
    echo "size: $1 ${size} non-test lines (ceiling $2)"
    if [ "$size" -gt "$2" ]; then
        echo "size gate: $1 grew to ${size} non-test lines, over the $2 ceiling" >&2
        exit 1
    fi
}
find internal/tsdb -name '*.go' ! -name '*_test.go' | size_gate internal/tsdb 5384
find . -name '*.go' ! -name '*_test.go' ! -path './internal/bench/*' ! -path './cmd/pmovebench/*' |
    size_gate 'outside the benchmark paths' 25337

# One durable lifecycle: every durable byte goes through storage.Store
# (store.go over wal.go), which owns closed and crashed. A bare WAL
# outside internal/storage is a second place for that rule to be
# forgotten. The benchmark's frozen paths time the WAL itself.
bare_wals=$(grep -rlE 'storage\.(OpenWAL|RewriteWAL)\(' --include='*.go' --exclude='*_test.go' . |
    grep -Ev '^\./(internal/storage|internal/bench|cmd/pmovebench)/' || true)
if [ -n "$bare_wals" ]; then
    echo "storage gate: open a storage.Store, not a bare WAL:" >&2
    echo "$bare_wals" >&2
    exit 1
fi

# One accept loop: tsdb's server owns its connections, and its one
# Accept is in server.go; docdb, which is embedded only, serves nothing.
# A second loop in either is a second place for the close-vs-accept rule
# (Server.track) to be forgotten.
accept_loops=$(grep -rn '\.Accept()' --include='*.go' --exclude='*_test.go' internal/tsdb internal/docdb || true)
if [ "$(printf '%s\n' "$accept_loops" | grep -c .)" -ne 1 ] ||
    ! printf '%s\n' "$accept_loops" | grep -q '^internal/tsdb/server\.go:'; then
    echo "accept gate: want exactly one .Accept() in non-test internal/tsdb (server.go) and none in internal/docdb; found:" >&2
    echo "$accept_loops" >&2
    exit 1
fi

# One reply codec: a QUERY reply is written by appendTable and read by
# decodeResult (reply.go); encoding/json is their test-only reference. A
# store file importing it is a second wire path back in.
json_imports=$(grep -l '"encoding/json"' $(find internal/tsdb -name '*.go' ! -name '*_test.go') || true)
if [ -n "$json_imports" ]; then
    echo "reply gate: internal/tsdb encodes and decodes replies in reply.go, not with encoding/json:" >&2
    echo "$json_imports" >&2
    exit 1
fi

# Results stay columns until the edge: the engines write a table, the
# cache keeps it and the server encodes it (tsdb.go). A Row, with its
# map of values, is built only where a table becomes the exported Result,
# (*table).result, and where the client decodes a reply, replyDecoder. A
# Row built anywhere else turns results sideways again.
row_builders=$(awk '
    /^func / { fn = $0 }
    /(^|[^A-Za-z0-9_])Row\{/ && fn !~ /^func \(t \*table\) result\(/ && fn !~ /^func \(d \*replyDecoder\) / { print FILENAME ":" FNR ": " $0 }
' $(find internal/tsdb -name '*.go' ! -name '*_test.go'))
if [ -n "$row_builders" ]; then
    echo "row gate: build a Row only in (*table).result and replyDecoder (internal/tsdb):" >&2
    echo "$row_builders" >&2
    exit 1
fi

# Fuzz smoke: each wire-protocol fuzz target runs 10s of real fuzzing
# (their checked-in seed corpora under testdata/fuzz/ already ran in
# both test passes above). One -fuzz invocation per target, as the
# fuzz engine requires.
fuzz_smoke() {
    pkg=$1
    target=$2
    echo "fuzz smoke: $target ($pkg)"
    go test -run '^$' -fuzz "^${target}\$" -fuzztime 10s "$pkg"
}
fuzz_smoke ./internal/tsdb FuzzDecodeLine
fuzz_smoke ./internal/tsdb FuzzEncodeDecodeRoundTrip
fuzz_smoke ./internal/tsdb FuzzBatchFrame
fuzz_smoke ./internal/tsdb FuzzParseQuery
fuzz_smoke ./internal/tsdb FuzzBlockDecode
fuzz_smoke ./internal/tsdb FuzzQueryReply
fuzz_smoke ./internal/tsdb FuzzAppendFloat
fuzz_smoke ./internal/tsdb FuzzAppendJSONFloat
fuzz_smoke ./internal/introspect FuzzParseTraceparent
fuzz_smoke ./internal/docdb FuzzDocClone
fuzz_smoke ./internal/storage FuzzWALRecord

# Benchmark smoke: every benchmark must still compile and survive one
# iteration — catches bit-rotted b.Run setups without paying for real
# measurement. This is also what keeps the scan-kernel benchmarks of
# internal/tsdb (DecodeField, DecodeTimes, FoldColumns) from rotting.
go test -run NONE -bench . -benchtime 1x ./...

# API gate: one name per operation, and that name is context-first. Every
# exported method of the daemon, the wire client (tsdb), the
# embedded SUPERDB, the embedded DB's Execute*/Query*/Write* entry points,
# and every exported exporter function that writes through a
# tsdb.BatchWriter, and every exported internal/dashboard function or
# method that takes a *tsdb.DB must take `ctx context.Context` as its
# first parameter. The only exemptions are pure accessors/configuration that
# perform no cancellable work, and Close: the shutdown path must run even
# when every request context is already dead. SUPERDB's exemptions do
# in-memory document work only (a KB summary upsert, two collection reads,
# the ML export's flattening); ReportObservation runs engine queries and
# batch writes, so it is gated. Extend an allowlist only for another pure
# accessor — never for a context-free twin.
daemon_accessors='AttachTarget|Target|Hosts|KB|SetTelemetrySink|SelfSnapshot|SelfSpans|MetaDashboard|ExposeAddr|Close'
client_accessors='Stats|Transport|Close|SetIntrospection|SetLogger|BreakerState'
superdb_accessors='ReportKB|Hosts|Observations|ExportML'
context_free() { # stdin: func declarations; $1: exempt method names
    grep -v '[A-Za-z](ctx context\.Context' | grep -Ev "\) ($1)\(" || true
}
violations=$(
    grep -h 'func (d \*Daemon) [A-Z]' internal/core/*.go | context_free "$daemon_accessors"
    grep -h 'func (c \*Client) [A-Z]' internal/tsdb/*.go | context_free "$client_accessors"
    grep -h 'func (s \*SuperDB) [A-Z]' internal/superdb/*.go | context_free "$superdb_accessors"
    grep -hE 'func \(db \*DB\) (Execute|Query|Write)[A-Za-z]*\(' internal/tsdb/*.go | context_free -
    grep -h '^func [A-Z].*tsdb\.BatchWriter' internal/introspect/*export/*.go | context_free -
    find internal/dashboard -name '*.go' ! -name '*_test.go' | xargs grep -hE '^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*\([^)]*\*tsdb\.DB' | context_free -
)
if [ -n "$violations" ]; then
    echo "context-first API gate: these exported operations must take 'ctx context.Context' first:" >&2
    echo "$violations" >&2
    exit 1
fi
deprecated=$(grep -rc 'Deprecated:' --include='*.go' . | awk -F: '{ n += $NF } END { print n + 0 }')
if [ "$deprecated" -ne 0 ]; then
    echo "API gate: $deprecated 'Deprecated:' markers; delete the old name instead of keeping a twin:" >&2
    grep -rn 'Deprecated:' --include='*.go' . >&2
    exit 1
fi

# Hot-path gate: a strings.Replacer or a compiled regexp is built once,
# as a package-level `var name = ...` (both are safe for concurrent use),
# never inside a function body where every call pays for the build — the
# line encoder used to spend more there than on everything else a point
# costs.
per_call=$(grep -rnE 'strings\.NewReplacer\(|regexp\.MustCompile\(' --include='*.go' --exclude='*_test.go' . |
    grep -Ev '^[^:]+:[0-9]+:var [A-Za-z_][A-Za-z0-9_]* += ' || true)
if [ -n "$per_call" ]; then
    echo "hot-path gate: hoist these to package-level vars:" >&2
    echo "$per_call" >&2
    exit 1
fi
# Likewise an instance name ("_cpu12", "_node0") is built when the machine
# or the agent is, not on every tick: no fmt.Sprint* in the body of an
# agent's Sample method or of Machine.SampleSW — a tick used to spend
# more on formatting 440 names than on reading 440 counters.
per_tick=$(awk '
    /^func \(.*\) (Sample|SampleSW)\(/ { body = 1 }
    body && /fmt\.Sprint/ { print FILENAME ":" FNR ": " $0 }
    /^}/ { body = 0 }
' internal/telemetry/agents.go internal/machine/swstate.go)
if [ -n "$per_tick" ]; then
    echo "hot-path gate: build these names at construction, not per sample:" >&2
    echo "$per_tick" >&2
    exit 1
fi

# Expose smoke: a daemon serves the live observability plane for real
# scrapers — /healthz answers and /metrics covers the runtime gauges.
# The monitor prints the bound address after its (virtual-time) run and
# -hold keeps the plane up for the scrape window.
go build -o pmove.ci ./cmd/pmove
./pmove.ci monitor -host icl -freq 2 -duration 2 -expose 127.0.0.1:0 -hold 60s > expose_smoke.out 2>&1 &
expose_pid=$!
trap 'kill "$expose_pid" 2>/dev/null || true; rm -f pmove.ci expose_smoke.out' EXIT
expose_addr=""
for _ in $(seq 1 100); do
    expose_addr=$(sed -n 's#^observability plane: http://\([^/]*\)/metrics$#\1#p' expose_smoke.out)
    [ -n "$expose_addr" ] && break
    sleep 0.2
done
if [ -z "$expose_addr" ]; then
    echo "expose smoke: daemon never announced its observability plane:" >&2
    cat expose_smoke.out >&2
    exit 1
fi
curl -fsS "http://$expose_addr/healthz" | grep -q '^ok$' || {
    echo "expose smoke: /healthz did not answer ok" >&2
    exit 1
}
curl -fsS "http://$expose_addr/metrics" | grep -q '^pmove_self_runtime_goroutines' || {
    echo "expose smoke: /metrics lacks pmove_self_runtime_goroutines" >&2
    exit 1
}
kill "$expose_pid" 2>/dev/null || true
echo "expose smoke: /healthz + /metrics served on $expose_addr"

echo "ci: all green"
