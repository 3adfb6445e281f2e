// Package expose is the live observability plane: it renders the
// introspect registry as OpenMetrics/Prometheus text and expvar-style
// JSON, samples Go runtime health into pmove.self.runtime.* gauges, and
// serves /metrics, /healthz, /readyz, /debug/vars and /logs over the
// standard library HTTP stack — no dependencies, scrapeable by any
// Prometheus-compatible collector.
package expose

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"pmove/internal/introspect"
)

// Source is one registry feeding the exposition: a snapshot function
// (usually Introspector.Snapshot) and constant labels stamped on every
// sample (e.g. process="daemon"). Every metric is named under
// introspect.DefaultPrefix ("pmove.self"). Multiple sources merge into
// one exposition; samples of the same family coexist when their labels
// differ.
type Source struct {
	Labels   map[string]string
	Snapshot func() introspect.Snapshot
}

// SourceFor adapts an introspector into a Source.
func SourceFor(in *introspect.Introspector, labels map[string]string) Source {
	return Source{Labels: labels, Snapshot: in.Snapshot}
}

// family is one metric family being assembled: all samples sharing a
// sanitized name, across sources.
type family struct {
	name  string // sanitized family name (no _total suffix for counters)
	kind  introspect.Kind
	help  string // the dotted pre-sanitization name
	lines []string
}

// WriteOpenMetrics renders every source's snapshot in OpenMetrics text
// form: `# HELP`/`# TYPE` headers, counters with the `_total` suffix,
// histograms as cumulative `_bucket{le=...}`/`_sum`/`_count` lines, and
// a terminating `# EOF`. Families are sorted by name, labels by key —
// the output is byte-stable for a given set of snapshots.
func WriteOpenMetrics(w io.Writer, sources ...Source) error {
	fams := map[string]*family{}
	var order []string
	for _, src := range sources {
		if src.Snapshot == nil {
			continue
		}
		labels := renderLabels(src.Labels)
		for _, m := range src.Snapshot().Metrics {
			dotted := introspect.DefaultPrefix + "." + m.Name
			name := sanitizeName(dotted)
			if m.Kind == introspect.KindCounter {
				// A registry counter already named *.total must not
				// double the suffix: the family is the stem, the
				// sample re-appends _total per the OpenMetrics rule.
				name = strings.TrimSuffix(name, "_total")
			}
			f := fams[name]
			if f == nil {
				f = &family{name: name, kind: m.Kind, help: dotted}
				fams[name] = f
				order = append(order, name)
			}
			f.lines = append(f.lines, sampleLines(name, labels, m)...)
		}
	}
	sort.Strings(order)
	for _, name := range order {
		f := fams[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, omType(f.kind)); err != nil {
			return err
		}
		for _, line := range f.lines {
			if _, err := io.WriteString(w, line); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

// sampleLines renders one metric's sample lines with pre-rendered
// constant labels.
func sampleLines(name, labels string, m introspect.Metric) []string {
	switch m.Kind {
	case introspect.KindCounter:
		return []string{fmt.Sprintf("%s_total%s %s\n", name, wrapLabels(labels), formatValue(m.Value))}
	case introspect.KindGauge:
		return []string{fmt.Sprintf("%s%s %s\n", name, wrapLabels(labels), formatValue(m.Value))}
	case introspect.KindHistogram:
		lines := make([]string, 0, len(m.Buckets)+2)
		for _, b := range m.Cumulative() {
			le := labels
			if le != "" {
				le += ","
			}
			le += `le="` + formatLE(b.LE) + `"`
			lines = append(lines, fmt.Sprintf("%s_bucket{%s} %d\n", name, le, b.Count))
		}
		lines = append(lines,
			fmt.Sprintf("%s_sum%s %s\n", name, wrapLabels(labels), formatValue(m.Sum)),
			fmt.Sprintf("%s_count%s %d\n", name, wrapLabels(labels), m.Count))
		return lines
	default:
		return nil
	}
}

// omType maps a registry kind to its OpenMetrics type name.
func omType(k introspect.Kind) string {
	switch k {
	case introspect.KindCounter:
		return "counter"
	case introspect.KindGauge:
		return "gauge"
	case introspect.KindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// sanitizeName maps a dotted metric name onto the OpenMetrics name
// charset [a-zA-Z0-9_:], collapsing every other rune to '_'.
func sanitizeName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// renderLabels renders a constant label set sorted by key, without
// braces: `a="1",b="2"`.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, sanitizeName(k)+`="`+escapeLabel(labels[k])+`"`)
	}
	return strings.Join(parts, ",")
}

// wrapLabels braces a rendered label set, or returns "" when empty.
func wrapLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// escapeHelp escapes a HELP docstring: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// formatValue renders a sample value: integral floats without exponent
// or trailing zeros, everything else in shortest-round-trip form.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatLE renders a bucket bound for the le label.
func formatLE(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
