// Package dashboard is the visualization substrate standing in for
// Grafana: dashboards are "only a simple JSON file" (paper Listing 1)
// holding panels whose targets name a datasource, a measurement and an
// instance-field parameter. P-MoVE auto-generates these files from the KB
// views (focus, subtree, level) and a renderer turns panel data from the
// tsdb into terminal plots.
package dashboard

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"pmove/internal/kb"
	"pmove/internal/ontology"
	"pmove/internal/tsdb"
)

// Datasource identifies where a target's data lives (Listing 1: type
// "influxdb" and a uid).
type Datasource struct {
	Type string `json:"type"`
	UID  string `json:"uid"`
}

// Target is one query of a panel: the measurement and the instance-field
// parameter ("params": "_cpu0" in Listing 1). Agg, when set, turns the
// target into an aggregated query (mean/min/max/sum/count/pNN of the
// field) and Window adds GROUP BY time(Window) downsampling — how the
// generator encodes the averages the paper's figures imply instead of
// shipping raw rows to the renderer.
type Target struct {
	Datasource  Datasource `json:"datasource"`
	Measurement string     `json:"measurement"`
	Params      string     `json:"params"`
	Tag         string     `json:"tag,omitempty"`    // observation tag filter
	Agg         string     `json:"agg,omitempty"`    // aggregate fn ("mean", "p99", …)
	Window      string     `json:"window,omitempty"` // GROUP BY time interval ("5s")
}

// Query renders the target as the tsdb query it issues. Aggregated
// targets are built through the canonical SELECT grammar, so an
// invalid Agg/Window surfaces as a parse error here, not downstream.
func (t Target) Query() (*tsdb.Query, error) {
	if t.Agg == "" {
		if t.Window != "" {
			return nil, fmt.Errorf("dashboard: target window %q requires an aggregate", t.Window)
		}
		q := &tsdb.Query{
			Fields:      []string{t.Params},
			Measurement: t.Measurement,
			TagFilter:   map[string]string{},
		}
		if t.Params == "" {
			q.Fields = []string{"*"}
		}
		if t.Tag != "" {
			q.TagFilter["tag"] = t.Tag
		}
		return q, nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s(%q) FROM %q", t.Agg, t.Params, t.Measurement)
	if t.Tag != "" {
		fmt.Fprintf(&b, " WHERE tag=%q", t.Tag)
	}
	if t.Window != "" {
		fmt.Fprintf(&b, " GROUP BY time(%s)", t.Window)
	}
	return tsdb.ParseQuery(b.String())
}

// Panel is one chart.
type Panel struct {
	ID      int      `json:"id"`
	Title   string   `json:"title,omitempty"`
	Targets []Target `json:"targets"`
}

// TimeRange is the dashboard's display window (Listing 1: "from": "now-5m").
type TimeRange struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// Dashboard is the JSON document Grafana processes. "A dashboard can be
// modified by the users and saved for the next sessions. The corresponding
// JSON file can be shared by multiple users."
type Dashboard struct {
	ID     int       `json:"id"`
	Title  string    `json:"title,omitempty"`
	Panels []Panel   `json:"panels"`
	Time   TimeRange `json:"time"`
}

// Encode renders the dashboard JSON.
func (d *Dashboard) Encode() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// Decode parses a dashboard JSON file.
func Decode(b []byte) (*Dashboard, error) {
	var d Dashboard
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("dashboard: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Validate checks structural soundness: unique panel ids, non-empty
// targets.
func (d *Dashboard) Validate() error {
	ids := map[int]bool{}
	for _, p := range d.Panels {
		if ids[p.ID] {
			return fmt.Errorf("dashboard: duplicate panel id %d", p.ID)
		}
		ids[p.ID] = true
		if len(p.Targets) == 0 {
			return fmt.Errorf("dashboard: panel %d has no targets", p.ID)
		}
		for _, t := range p.Targets {
			if t.Measurement == "" {
				return fmt.Errorf("dashboard: panel %d has a target without a measurement", p.ID)
			}
			if t.Datasource.Type == "" {
				return fmt.Errorf("dashboard: panel %d has a target without a datasource type", p.ID)
			}
		}
	}
	return nil
}

// Generator builds dashboards from KB views. DatasourceUID names the
// tsdb connection registered in the visualization layer. A Generator is
// safe for concurrent use: parallel Monitor sessions on different
// targets generate their dashboards through the daemon's one shared
// instance.
type Generator struct {
	DatasourceUID string

	// Agg, when set, makes every generated target an aggregated query
	// (e.g. "mean" — the shape the paper's Table/figure averages imply)
	// and Window adds GROUP BY time(Window) downsampling. Set them
	// before generating; empty keeps the raw-series targets.
	Agg    string
	Window string

	mu     sync.Mutex
	nextID int
}

// NewGenerator creates a generator.
func NewGenerator(datasourceUID string) *Generator {
	return &Generator{DatasourceUID: datasourceUID, nextID: 1}
}

// allocID hands out the next dashboard ID.
func (g *Generator) allocID() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nextID++
	return g.nextID
}

func (g *Generator) ds() Datasource {
	return Datasource{Type: "influxdb", UID: g.DatasourceUID}
}

// FromView generates one dashboard for a KB view: one panel per component
// carrying the component's telemetry definitions as targets. This is the
// fully automated path of §III-B ("Employing a tree-structured KB enables
// fully automated performance monitoring … and dashboards").
func (g *Generator) FromView(v *kb.View) (*Dashboard, error) {
	if v == nil || len(v.Nodes) == 0 {
		return nil, fmt.Errorf("dashboard: empty view")
	}
	d := &Dashboard{
		ID:    g.allocID(),
		Title: v.Title,
		Time:  TimeRange{From: "now-5m", To: "now"},
	}
	pid := 0
	for _, n := range v.Nodes {
		tels := n.Interface.Telemetries("")
		if len(tels) == 0 {
			continue
		}
		pid++
		p := Panel{ID: pid, Title: n.Interface.DisplayName}
		for _, t := range tels {
			p.Targets = append(p.Targets, Target{
				Datasource:  g.ds(),
				Measurement: t.DBName,
				Params:      t.FieldName,
				Agg:         g.Agg,
				Window:      g.Window,
			})
		}
		sort.Slice(p.Targets, func(i, j int) bool {
			a, b := p.Targets[i], p.Targets[j]
			if a.Measurement != b.Measurement {
				return a.Measurement < b.Measurement
			}
			return a.Params < b.Params
		})
		d.Panels = append(d.Panels, p)
	}
	if len(d.Panels) == 0 {
		return nil, fmt.Errorf("dashboard: view %q has no telemetry to display", v.Title)
	}
	return d, d.Validate()
}

// ForObservation generates the dashboard recalling one observation's
// sampled metrics (the Scenario B visualisation path).
func (g *Generator) ForObservation(o *kb.Observation) (*Dashboard, error) {
	if len(o.Metrics) == 0 {
		return nil, fmt.Errorf("dashboard: observation %s sampled no metrics", o.Tag)
	}
	d := &Dashboard{
		ID:    g.allocID(),
		Title: fmt.Sprintf("observation %s (%s)", o.Tag, o.Command),
		Time:  TimeRange{From: "now-5m", To: "now"},
	}
	for i, m := range o.Metrics {
		p := Panel{ID: i + 1, Title: m.Measurement}
		fields := append([]string(nil), m.Fields...)
		sort.Strings(fields)
		for _, f := range fields {
			p.Targets = append(p.Targets, Target{
				Datasource:  g.ds(),
				Measurement: m.Measurement,
				Params:      f,
				Tag:         o.Tag,
				Agg:         g.Agg,
				Window:      g.Window,
			})
		}
		d.Panels = append(d.Panels, p)
	}
	return d, d.Validate()
}

// FetchSeriesContext runs a panel target against the tsdb, returning
// time-ordered (ns, value) pairs. Aggregated targets (Agg set) read
// their value from the aggregate column — one pair per GROUP BY
// window, or a single pair for the whole range.
func FetchSeriesContext(ctx context.Context, db *tsdb.DB, t Target) ([]int64, []float64, error) {
	q, err := t.Query()
	if err != nil {
		return nil, nil, err
	}
	// A target without a field selects *: its series is the result's
	// first column, which is sorted, so every call reads the same field.
	col := t.Params
	if len(q.Aggregates) > 0 {
		col = q.Aggregates[0].Column()
	}
	return db.SeriesContext(ctx, tsdb.QueryRequest{Query: q}, col)
}

// KindDashboards generates the standard dashboard set for a KB: a subtree
// view of the whole system plus a level view per populated component kind
// — the automation behind Fig 2.
func (g *Generator) KindDashboards(k *kb.KB) (map[string]*Dashboard, error) {
	out := map[string]*Dashboard{}
	sub, err := k.SubtreeView(k.Root().ID)
	if err != nil {
		return nil, err
	}
	d, err := g.FromView(sub)
	if err != nil {
		return nil, err
	}
	out["subtree:"+k.Host] = d
	for _, kind := range ontology.Kinds() {
		lv, err := k.LevelView(kind)
		if err != nil {
			continue // kind not populated
		}
		d, err := g.FromView(lv)
		if err != nil {
			continue // no telemetry at this level
		}
		out[fmt.Sprintf("level:%s:%s", k.Host, kind)] = d
	}
	return out, nil
}
