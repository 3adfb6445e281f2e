// cluster_superdb demonstrates §III-E: several P-MoVE instances report
// their Knowledge Bases and observations to the global performance
// database (SUPERDB). Raw time-series upload (TSObservationInterface) and
// statistical aggregation (AGGObservationInterface) are both shown, plus
// the cross-machine level view of Fig 2(d) and the ML training export.
package main

import (
	"context"
	"fmt"
	"log"

	"pmove"
	"pmove/internal/superdb"
)

func main() {
	ctx := context.Background()
	global := pmove.NewSuperDB()

	// Two independent instances: skx and icl, each probing its own target
	// and running a short monitoring session.
	kbs := map[string]*pmove.KB{}
	for i, preset := range []string{pmove.PresetSKX, pmove.PresetICL} {
		d, err := pmove.NewDaemonWith(pmove.WithEnv(pmove.EnvFromOS()))
		if err != nil {
			log.Fatal(err)
		}
		sys := pmove.MustPreset(preset)
		if _, err := d.AttachTarget(sys, pmove.MachineConfig{Seed: uint64(i + 1)}, pmove.DefaultPipeline()); err != nil {
			log.Fatal(err)
		}
		k, err := d.ProbeContext(ctx, preset)
		if err != nil {
			log.Fatal(err)
		}
		kbs[preset] = k

		res, err := d.MonitorContext(ctx, pmove.MonitorRequest{Host: preset, FreqHz: 4, DurationSeconds: 20})
		if err != nil {
			log.Fatal(err)
		}

		// Report the KB and the observation to the global instance: the
		// first host ships raw time series, the second only aggregates.
		if err := global.ReportKB(k); err != nil {
			log.Fatal(err)
		}
		mode := superdb.ModeTS
		if i == 1 {
			mode = superdb.ModeAGG
		}
		if err := global.ReportObservation(ctx, res.Observation, d.TS, mode); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: reported KB (%d twins) and observation %s as %s\n",
			preset, k.Len(), res.Observation.Tag, mode)
	}

	fmt.Printf("\nSUPERDB now knows hosts: %v\n", global.Hosts())
	for _, h := range global.Hosts() {
		fmt.Printf("  %s: %d observation(s)\n", h, len(global.Observations(h)))
	}

	// Cross-machine comparison (Fig 2d): one level view spanning both
	// systems' sockets, turned into a single dashboard.
	view, err := pmove.CrossLevelView(pmove.KindSocket, kbs[pmove.PresetSKX], kbs[pmove.PresetICL])
	if err != nil {
		log.Fatal(err)
	}
	d, err := pmove.NewDaemonWith(pmove.WithEnv(pmove.EnvFromOS()))
	if err != nil {
		log.Fatal(err)
	}
	dash, err := d.Gen.FromView(view)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncross-machine dashboard %q: %d panels\n", dash.Title, len(dash.Panels))

	// ML export: flattened aggregate rows (the SUPERDB training path).
	rows, err := global.ExportML()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nML export: %d aggregated observation row(s)\n", len(rows))
	for _, r := range rows {
		fmt.Printf("  %s %s (%s): %d aggregate series\n", r.Host, r.Tag, r.Command, len(r.Aggs))
		for j, a := range r.Aggs {
			if j == 3 {
				fmt.Printf("    ...\n")
				break
			}
			fmt.Printf("    %s %s: n=%d mean=%.3g p99=%.3g\n", a.Measurement, a.Field, a.Count, a.Mean, a.P99)
		}
	}
}
