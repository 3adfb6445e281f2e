package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
)

// Manifest is BENCHMARK.json: the command, the workloads, and every
// metric with its unit and direction. Its end_to_end list is what the
// driver holds every workload to (with the share of the parent's median
// by which each may get worse); the end-to-end metrics only some
// workloads have are in its per_layer list and bounded by endToEndTable.
type Manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// MetricSpec is one metric of the manifest. Bound is absent per layer.
type MetricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// LoadManifest reads BENCHMARK.json.
func LoadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &m, nil
}

// Env is the machine and the settings a report was measured under.
type Env struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Fsync      string `json:"fsync"`
	Tmpfs      bool   `json:"tmpfs"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

// NewEnv describes this process; dir, which must exist, is where the
// data directories go.
func NewEnv(seed uint64, dir string) Env {
	return Env{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Fsync: string(fsyncPolicy), Tmpfs: onTmpfs(dir), Commit: commit(), Seed: seed,
	}
}

// commit is the revision the binary was stamped with, or — go run stamps
// none — HEAD of the repository the working directory is the root of.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

// Report is what -out writes: the environment and every run made.
type Report struct {
	Env  Env       `json:"env"`
	Runs []*Result `json:"runs"`
}

// LoadReport reads a report written by -out.
func LoadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// Print lists a result's metrics by name with their units.
func (r *Result) Print(w io.Writer) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s (%s, seed %d, %d rounds): attempted %d, failed %d, correct %v\n",
		r.Workload, kind, r.Seed, r.Rounds, r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		samples := ""
		if m.N > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintf(w, "  %-40s %16.6g %s%s\n", n, m.Value, m.Unit, samples)
	}
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// Compare holds report b against report a (the base), workload by
// workload and end-to-end metric by end-to-end metric, under
// endToEndTable's bounds, and writes one row per pairing: ok, regressed,
// or unresolved when the run-to-run spread of either side is wider than
// the bound (unless every run of b reads better than every run of a). It
// returns whether anything regressed; under their bound of 0 that is any
// rise of loss_ratio or failed_ops_ratio.
func Compare(w io.Writer, a, b *Report) (regressed bool) {
	type key struct{ workload, metric string }
	collect := func(r *Report) map[key][]float64 {
		vals := map[key][]float64{}
		for _, run := range r.Runs {
			if run.Traced {
				continue
			}
			for name, m := range run.Metrics {
				k := key{run.Workload, name}
				vals[k] = append(vals[k], m.Value)
			}
		}
		return vals
	}
	va, vb := collect(a), collect(b)
	fmt.Fprintf(w, "%-14s %-26s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "spread", "bound", "verdict")
	for _, wl := range Workloads {
		for _, spec := range endToEndTable {
			if !slices.Contains(spec.workloads, wl) {
				continue
			}
			xa, xb := va[key{wl, spec.name}], vb[key{wl, spec.name}]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-14s %-26s missing from one report\n", wl, spec.name)
				regressed = true
				continue
			}
			// Under a bound of 0 (lost points, failed ops) one bad run is
			// a finding, not noise: the worst run stands for the set.
			exact := spec.bound == 0
			fold := median
			if exact {
				fold = slices.Max[[]float64]
			}
			ma, mb := fold(xa), fold(xb)
			worse := mb - ma
			allBetter := slices.Min(xa) > slices.Max(xb)
			if spec.better == "higher" {
				worse = ma - mb
				allBetter = slices.Max(xa) < slices.Min(xb)
			}
			// As a share of the base; any rise from a base of 0 is beyond
			// every bound.
			switch {
			case ma != 0:
				worse /= math.Abs(ma)
			case worse > 0:
				worse = math.Inf(1)
			}
			spread := 0.0
			for _, side := range []struct {
				xs []float64
				m  float64
			}{{xa, ma}, {xb, mb}} {
				if len(side.xs) >= 3 {
					q1, q3 := quartiles(side.xs)
					spread = max(spread, ratio(q3-q1, side.m))
				}
			}
			verdict := "ok"
			switch {
			case !exact && spread > spec.bound && !allBetter:
				verdict = "unresolved"
			case worse > spec.bound:
				verdict = "regressed"
				regressed = true
			}
			change := "n/a" // no ratio to a base of 0
			if ma != 0 {
				change = fmt.Sprintf("%.3fx", mb/ma)
			}
			fmt.Fprintf(w, "%-14s %-26s %14.6g %14.6g %8s %6.1f%% %6.1f%%  %s (%d vs %d runs)\n",
				wl, spec.name, ma, mb, change, 100*spread, 100*spec.bound, verdict, len(xa), len(xb))
		}
	}
	return regressed
}
