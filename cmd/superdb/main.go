// Command superdb serves the global performance database's time-series
// store (InfluxDB stand-in) on one TCP port. Local P-MoVE instances ship
// their telemetry to it (`pmove monitor -influx`); KBs and observations
// are reported to an embedded SUPERDB (internal/superdb) in process, and
// its document store (the MongoDB stand-in) has no network protocol.
//
// With -expose the process also serves the live observability plane:
// /metrics exposes the server's registry (with a process label), /logs
// the structured log ring, and ops slower than -slow leave
// trace-correlated slow-op records in it.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"pmove/internal/introspect"
	"pmove/internal/introspect/expose"
	"pmove/internal/introspect/logbuf"
	"pmove/internal/tsdb"
)

func main() {
	tsAddr := flag.String("ts", "127.0.0.1:8086", "time-series store listen address")
	retention := flag.Duration("retention", 0, "time-series retention (0 = keep forever)")
	exposeAddr := flag.String("expose", "", "serve the observability plane on this address: /metrics, /healthz, /readyz, /debug/vars, /logs")
	slow := flag.Duration("slow", 250*time.Millisecond, "with -expose, log ops slower than this with their wire traceparent (0 logs every op)")
	flag.Parse()

	ts := tsdb.New()
	if *retention > 0 {
		ts.SetRetention(tsdb.RetentionPolicy{Name: "superdb", Duration: retention.Nanoseconds()})
	}

	tsSrv := tsdb.NewServer(ts)

	var exposeSrv *expose.Server
	if *exposeAddr != "" {
		tsIn := introspect.New(introspect.WithProcess("superdb_ts"))
		logs := logbuf.New(0)
		tsSrv.SetTracing(tsIn)
		tsSrv.SetLogger(logs.With("tsdb.server"), *slow)

		exposeSrv = expose.NewServer(tsIn, map[string]string{"process": "superdb_ts"}, logs)
		if err := exposeSrv.Listen(*exposeAddr); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("superdb: observability plane on %s\n", exposeSrv.Addr())
	}

	gotTS, err := tsSrv.Listen(*tsAddr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("superdb: time series on %s\n", gotTS)
	if *retention > 0 {
		fmt.Printf("retention: %s\n", *retention)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("superdb: shutting down")
	tsSrv.Close()
	if exposeSrv != nil {
		exposeSrv.Close()
	}
}
