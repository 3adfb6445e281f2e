// Command superdb runs the global performance database as network
// services: the document store (MongoDB stand-in) and the time-series
// store (InfluxDB stand-in), each on its own TCP port. Local P-MoVE
// instances ship their telemetry to the time-series store here
// (`pmove monitor -influx`); KBs and observations are reported to an
// embedded SUPERDB (internal/superdb) in process.
//
// With -expose the process also serves the live observability plane:
// /metrics exposes both servers' registries (distinguished by a process
// label), /logs the shared structured log ring, and ops slower than
// -slow leave trace-correlated slow-op records in it.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"pmove/internal/docdb"
	"pmove/internal/introspect"
	"pmove/internal/introspect/expose"
	"pmove/internal/introspect/logbuf"
	"pmove/internal/tsdb"
)

func main() {
	docAddr := flag.String("docs", "127.0.0.1:27017", "document store listen address")
	tsAddr := flag.String("ts", "127.0.0.1:8086", "time-series store listen address")
	retention := flag.Duration("retention", 0, "time-series retention (0 = keep forever)")
	exposeAddr := flag.String("expose", "", "serve the observability plane on this address: /metrics, /healthz, /readyz, /debug/vars, /logs")
	slow := flag.Duration("slow", 250*time.Millisecond, "with -expose, log ops slower than this with their wire traceparent (0 logs every op)")
	flag.Parse()

	docs := docdb.New()
	ts := tsdb.New()
	if *retention > 0 {
		ts.SetRetention(tsdb.RetentionPolicy{Name: "superdb", Duration: retention.Nanoseconds()})
	}

	docSrv := docdb.NewServer(docs)
	tsSrv := tsdb.NewServer(ts)

	var exposeSrv *expose.Server
	var stopSampler func()
	if *exposeAddr != "" {
		// One introspector per server keeps their op metrics separate;
		// the process label tells the merged /metrics families apart.
		tsIn := introspect.New(introspect.WithProcess("superdb_ts"))
		docIn := introspect.New(introspect.WithProcess("superdb_docs"))
		logs := logbuf.New(0)
		tsSrv.SetTracing(tsIn)
		docSrv.SetTracing(docIn)
		tsSrv.SetLogger(logs.With("tsdb.server"), *slow)
		docSrv.SetLogger(logs.With("docdb.server"), *slow)

		exposeSrv = expose.NewServer()
		exposeSrv.AddSource(expose.SourceFor(tsIn, map[string]string{"process": "superdb_ts"}))
		exposeSrv.AddSource(expose.SourceFor(docIn, map[string]string{"process": "superdb_docs"}))
		exposeSrv.SetLogs(logs)
		exposeSrv.OnScrape(func() { expose.CollectRuntime(tsIn) })
		exposeSrv.TrackConns(tsIn.Metrics().Gauge(expose.GaugeConns))
		if err := exposeSrv.Listen(*exposeAddr); err != nil {
			log.Fatal(err)
		}
		stopSampler = expose.StartRuntimeSampler(tsIn, 10*time.Second)
		fmt.Printf("superdb: observability plane on %s\n", exposeSrv.Addr())
	}

	gotDoc, err := docSrv.Listen(*docAddr)
	if err != nil {
		log.Fatal(err)
	}
	gotTS, err := tsSrv.Listen(*tsAddr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("superdb: documents on %s, time series on %s\n", gotDoc, gotTS)
	if *retention > 0 {
		fmt.Printf("retention: %s\n", *retention)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("superdb: shutting down")
	docSrv.Close()
	tsSrv.Close()
	if stopSampler != nil {
		stopSampler()
	}
	if exposeSrv != nil {
		exposeSrv.Close()
	}
}
