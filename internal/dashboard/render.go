package dashboard

import (
	"context"
	"fmt"
	"math"
	"strings"

	"pmove/internal/tsdb"
)

// renderPanelASCII draws a panel's series as a terminal sparkline chart —
// the stand-in for Grafana's graph panel. Each target becomes one row of
// block characters scaled to the panel's global maximum.
func renderPanelASCII(ctx context.Context, db *tsdb.DB, p Panel, width int) (string, error) {
	if width < 16 {
		width = 16
	}
	type seriesData struct {
		label string
		ts    []int64
		vs    []float64
	}
	var all []seriesData
	globalMax := 0.0
	for _, t := range p.Targets {
		ts, vs, err := FetchSeriesContext(ctx, db, t)
		if err != nil {
			return "", err
		}
		for _, v := range vs {
			if v > globalMax {
				globalMax = v
			}
		}
		label := t.Measurement + " " + t.Params
		if t.Agg != "" {
			label = fmt.Sprintf("%s %s(%s)", t.Measurement, t.Agg, t.Params)
			if t.Window != "" {
				label += " by " + t.Window
			}
		}
		all = append(all, seriesData{label: label, ts: ts, vs: vs})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", p.Title)
	levels := []rune(" ▁▂▃▄▅▆▇█")
	for _, s := range all {
		line := make([]rune, width)
		for i := range line {
			line[i] = ' '
		}
		if len(s.vs) > 0 && globalMax > 0 {
			// Resample the series to the panel width.
			for x := 0; x < width; x++ {
				idx := x * len(s.vs) / width
				frac := s.vs[idx] / globalMax
				li := int(math.Round(frac * float64(len(levels)-1)))
				if li < 0 {
					li = 0
				}
				if li >= len(levels) {
					li = len(levels) - 1
				}
				line[x] = levels[li]
			}
		}
		last := 0.0
		if len(s.vs) > 0 {
			last = s.vs[len(s.vs)-1]
		}
		fmt.Fprintf(&b, "%-52s |%s| last=%.4g\n", truncate(s.label, 52), string(line), last)
	}
	return b.String(), nil
}

// RenderDashboardASCII renders every panel of a dashboard.
func RenderDashboardASCII(ctx context.Context, db *tsdb.DB, d *Dashboard, width int) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "### dashboard %d: %s (window %s..%s)\n", d.ID, d.Title, d.Time.From, d.Time.To)
	for _, p := range d.Panels {
		s, err := renderPanelASCII(ctx, db, p, width)
		if err != nil {
			return "", err
		}
		b.WriteString(s)
	}
	return b.String(), nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
