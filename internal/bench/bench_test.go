package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// smoke runs every workload once, untraced and traced, and the layer
// probes, at -scale 0.01 with every correctness check on. The results
// are shared by the tests below so tier-1 pays for them once.
var smoke struct {
	once    sync.Once
	plain   map[string]*Result
	traced  map[string]*Result
	probes  *Result
	elapsed time.Duration
	err     error
}

func smokeResults(t *testing.T) (plain, traced map[string]*Result, probes *Result) {
	t.Helper()
	smoke.once.Do(func() {
		smoke.plain, smoke.traced = map[string]*Result{}, map[string]*Result{}
		opts := Options{Seed: 1, Scale: 0.01, Dir: t.TempDir(), Digest: true}
		start := time.Now()
		for _, name := range Workloads {
			if smoke.plain[name], smoke.err = Run(context.Background(), name, opts); smoke.err != nil {
				return
			}
			if smoke.traced[name], smoke.err = RunTraced(context.Background(), name, opts); smoke.err != nil {
				return
			}
		}
		smoke.probes, smoke.err = Probes(context.Background(), opts)
		smoke.elapsed = time.Since(start)
	})
	if smoke.err != nil {
		t.Fatal(smoke.err)
	}
	return smoke.plain, smoke.traced, smoke.probes
}

func TestSmokeEveryWorkloadCorrect(t *testing.T) {
	plain, traced, probes := smokeResults(t)
	for _, name := range Workloads {
		for _, r := range []*Result{plain[name], traced[name]} {
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s (traced=%v): attempted %d, failed %d: %v", name, r.Traced, r.Attempted, r.Failed, r.Failures)
			}
			for _, metric := range []string{"loss_ratio", "failed_ops_ratio"} {
				if v := r.Metrics[metric].Value; v != 0 {
					t.Errorf("%s (traced=%v): %s %v, want 0", name, r.Traced, metric, v)
				}
			}
		}
	}
	if !probes.Correct || probes.Attempted == 0 {
		t.Errorf("layer probes: attempted %d, failed %d: %v", probes.Attempted, probes.Failed, probes.Failures)
	}
	if smoke.elapsed > 10*time.Second && !raceEnabled {
		t.Errorf("smoke took %v, want under 10s", smoke.elapsed)
	}
}

// TestManifestMatchesOutput keeps BENCHMARK.json and the harness from
// drifting apart: every name the manifest lists is emitted by some run
// and nothing else is, every workload reports every end_to_end metric and
// never 0, endToEndTable agrees with the manifest, names are well formed
// and the counts fit the contract.
func TestManifestMatchesOutput(t *testing.T) {
	man, err := LoadManifest("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(man.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(man.Workloads) != len(Workloads) {
		t.Fatalf("manifest has %d workloads, harness %d", len(man.Workloads), len(Workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for i, w := range man.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d is %q in the manifest, %q in the harness", i, w.Name, Workloads[i])
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		seen[w.Name] = true
	}
	listed := map[string]MetricSpec{}
	for _, s := range append(append([]MetricSpec(nil), man.EndToEnd...), man.PerLayer...) {
		if !nameRE.MatchString(s.Name) || !unitRE.MatchString(s.Unit) || (s.Better != "lower" && s.Better != "higher") {
			t.Errorf("%q: bad name, unit %q or direction %q", s.Name, s.Unit, s.Better)
		}
		if seen[s.Name] {
			t.Errorf("name %q used twice", s.Name)
		}
		seen[s.Name] = true
		listed[s.Name] = s
	}
	for _, s := range man.PerLayer {
		if s.Bound != nil {
			t.Errorf("per_layer %q has a bound", s.Name)
		}
	}

	plain, traced, probes := smokeResults(t)
	emitted := map[string]bool{}
	runs := []*Result{probes}
	for _, name := range Workloads {
		runs = append(runs, plain[name], traced[name])
	}
	for _, r := range runs {
		for metric, m := range r.Metrics {
			emitted[metric] = true
			if s, ok := listed[metric]; !ok {
				t.Errorf("%s (traced=%v) emits %q, which the manifest does not list", r.Workload, r.Traced, metric)
			} else if s.Unit != m.Unit {
				t.Errorf("%s: %q has unit %q, manifest says %q", r.Workload, metric, m.Unit, s.Unit)
			}
		}
	}
	for name := range listed {
		if !emitted[name] {
			t.Errorf("no run emits %q", name)
		}
	}

	table := map[string]endToEndMetric{}
	for _, spec := range endToEndTable {
		table[spec.name] = spec
		if s, ok := listed[spec.name]; !ok || s.Unit != spec.unit || s.Better != spec.better {
			t.Errorf("endToEndTable has %+v, the manifest %+v", spec, s)
		}
		for _, name := range spec.workloads {
			if _, ok := plain[name].Metrics[spec.name]; !ok {
				t.Errorf("%s does not report %q untraced", name, spec.name)
			}
		}
	}
	hasSetup := false
	for _, s := range man.EndToEnd {
		if s.Bound == nil || *s.Bound <= 0 || *s.Bound > 0.25 {
			t.Errorf("end_to_end %q: bound %v, want (0, 0.25]", s.Name, s.Bound)
		} else if spec := table[s.Name]; spec.bound != *s.Bound || len(spec.workloads) != len(Workloads) {
			t.Errorf("end_to_end %q (bound %v): endToEndTable has %+v", s.Name, *s.Bound, spec)
		}
		hasSetup = hasSetup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
		for _, name := range Workloads {
			if v := plain[name].Metrics[s.Name].Value; !(v > 0) {
				t.Errorf("%s: end_to_end metric %q reads %v, must never be 0", name, s.Name, v)
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s (s, lower) among the end-to-end metrics")
	}
}

// TestWorkloadsIsolateLayers: the spans of each traced timed section
// show only the layers the workload claims to exercise.
func TestWorkloadsIsolateLayers(t *testing.T) {
	_, traced, _ := smokeResults(t)
	want := map[string][]string{
		"live_monitor": {"tick", "telemetry.run_tick", "sink.write_batch", "dash.query", "tsdb.open_replay", "tsdb.compact_reopen"},
		"bulk_ingest":  {"tsdb.write_batch", "tsdb.open_replay", "tsdb.compact_reopen"},
		"dash_cold":    {"query", "dashboard.fetch_series", "tsdb.execute"},
		"mixed_rw":     {"write", "client.write_batch", "query", "client.query", "tsdb.open_replay", "tsdb.compact_reopen"},
	}
	for name, names := range want {
		got := traced[name].SpanNames
		for _, n := range names {
			if got[n] == 0 {
				t.Errorf("%s: no %q span", name, n)
			}
		}
		if len(got) != len(names) {
			t.Errorf("%s: spans %v, want only %v", name, got, names)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(traced[name].ChromeTrace(), &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: Chrome trace does not load (%d events): %v", name, len(doc.TraceEvents), err)
		}
	}
	for _, name := range []string{"live_monitor", "mixed_rw"} {
		total := 0.0
		for metric, m := range traced[name].Metrics {
			if strings.HasPrefix(metric, "wire.") {
				total += m.Value
			}
		}
		if total < 0.99 || total > 1.01 {
			t.Errorf("%s: wire.*_share sum to %v, want 1", name, total)
		}
	}
}

// TestSameSeedSameOps: the op stream is a function of the seed alone,
// and with it the byte counts of the durable workloads and the allocation
// count of the single-writer path.
func TestSameSeedSameOps(t *testing.T) {
	plain, _, probes := smokeResults(t)
	again := Options{Seed: 1, Scale: 0.01, Dir: t.TempDir(), Digest: true}
	other := again
	other.Seed = 2
	for _, name := range Workloads {
		same, err := Run(context.Background(), name, again)
		if err != nil {
			t.Fatal(err)
		}
		diff, err := Run(context.Background(), name, other)
		if err != nil {
			t.Fatal(err)
		}
		if plain[name].Digest == "" || same.Digest != plain[name].Digest {
			t.Errorf("%s: seed 1 gave op digests %q and %q", name, plain[name].Digest, same.Digest)
		}
		if diff.Digest == plain[name].Digest {
			t.Errorf("%s: seeds 1 and 2 gave the same op digest %q", name, diff.Digest)
		}
		for _, metric := range []string{"wal_bytes_per_point", "snapshot_bytes_per_point"} {
			if a, ok := plain[name].Metrics[metric]; ok && (a.Value == 0 || a.Value != same.Metrics[metric].Value) {
				t.Errorf("%s: %s %v then %v on the same seed", name, metric, a.Value, same.Metrics[metric].Value)
			}
		}
	}
	second, err := Probes(context.Background(), again)
	if err != nil {
		t.Fatal(err)
	}
	const metric = "tsdb.write_allocs_per_point"
	if a, b := probes.Metrics[metric].Value, second.Metrics[metric].Value; a != b || a == 0 {
		t.Errorf("%s: %v then %v on the same seed", metric, a, b)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	// Three runs of every workload with every metric it has at 100, then
	// bulk_ingest's listed ones replaced.
	report := func(over map[string][]float64) *Report {
		r := &Report{}
		for i := 0; i < 3; i++ {
			for _, wl := range Workloads {
				run := &Result{Workload: wl, Metrics: map[string]Metric{}}
				for _, spec := range endToEndTable {
					if !slices.Contains(spec.workloads, wl) {
						continue
					}
					v := 100.0
					if strings.HasSuffix(spec.name, "_ratio") {
						v = 0
					}
					if xs, ok := over[spec.name]; ok && wl == "bulk_ingest" {
						v = xs[i]
					}
					run.Metrics[spec.name] = Metric{Value: v, Unit: spec.unit}
				}
				r.Runs = append(r.Runs, run)
			}
		}
		// A traced run is not part of the comparison.
		r.Runs = append(r.Runs, &Result{Workload: "bulk_ingest", Traced: true, Metrics: map[string]Metric{"points_per_s": {Value: 1}}})
		return r
	}
	base := report(nil)
	for _, c := range []struct {
		name      string
		other     *Report
		regressed bool
		want      map[string]string // bulk_ingest rows that do not read ok
	}{
		{"same", report(map[string][]float64{"points_per_s": {100, 102, 98}, "write_p50_ms": {102, 100, 98}}), false, nil},
		{"slower", report(map[string][]float64{"points_per_s": {80, 81, 79}}), true, map[string]string{"points_per_s": "regressed"}},
		{"within the driver's bound, beyond the issue's", report(map[string][]float64{"ops_per_s": {80, 81, 79}}), false, nil},
		{"noisy", report(map[string][]float64{"write_p50_ms": {60, 100, 140}}), false, map[string]string{"write_p50_ms": "unresolved"}},
		{"noisy but all better", report(map[string][]float64{"write_p50_ms": {20, 50, 80}}), false, nil},
		{"bigger WAL", report(map[string][]float64{"wal_bytes_per_point": {102, 102, 102}}), true, map[string]string{"wal_bytes_per_point": "regressed"}},
		{"slower recovery", report(map[string][]float64{"recover_s": {112, 112, 112}}), true, map[string]string{"recover_s": "regressed"}},
		{"wrong answers in one run", report(map[string][]float64{"failed_ops_ratio": {0, 0.01, 0}}), true, map[string]string{"failed_ops_ratio": "regressed"}},
		{"lost points", report(map[string][]float64{"loss_ratio": {0.001, 0.001, 0.001}}), true, map[string]string{"loss_ratio": "regressed"}},
	} {
		var out bytes.Buffer
		if got := Compare(&out, base, c.other); got != c.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, got, c.regressed, out.String())
		}
		rows := 0
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
			f := strings.Fields(line)
			want := "ok"
			if v, ok := c.want[f[1]]; ok && f[0] == "bulk_ingest" {
				want = v
			}
			if !strings.Contains(line, " "+want+" (3 vs 3 runs)") {
				t.Errorf("%s: want %s in %q", c.name, want, line)
			}
			rows++
		}
		if rows != 9+11+6+10 {
			t.Errorf("%s: %d rows, want one per metric a workload has (36)\n%s", c.name, rows, out.String())
		}
	}
}
