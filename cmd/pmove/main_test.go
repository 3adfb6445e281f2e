package main

import (
	"context"
	"testing"

	"pmove/internal/introspect"
	"pmove/internal/introspect/expose"
	"pmove/internal/introspect/logbuf"
)

// The CLI subcommands run end-to-end against embedded state; these tests
// pin their exit behaviour (each cmdX returns nil on a healthy run and an
// error on bad flags).

func TestCmdProbe(t *testing.T) {
	if err := cmdProbe([]string{"-host", "icl", "-gpu"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdProbe([]string{"-host", "pdp11"}); err == nil {
		t.Fatal("unknown host accepted")
	}
}

func TestCmdViews(t *testing.T) {
	if err := cmdViews([]string{"-host", "icl", "-kind", "socket"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdViews([]string{"-host", "icl", "-kind", "flux_capacitor"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestCmdMonitor(t *testing.T) {
	if err := cmdMonitor([]string{"-host", "icl", "-freq", "2", "-duration", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdMonitorExpose(t *testing.T) {
	if err := cmdMonitor([]string{"-host", "icl", "-freq", "2", "-duration", "3",
		"-expose", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMonitor([]string{"-host", "icl", "-freq", "2", "-duration", "3",
		"-expose", "256.0.0.1:bogus"}); err == nil {
		t.Fatal("bogus expose address accepted")
	}
}

func TestCmdIntrospectJSON(t *testing.T) {
	if err := cmdIntrospect([]string{"-host", "icl", "-duration", "2", "-json"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdLogs(t *testing.T) {
	// Stand a plane up with a few ring records and read it back through
	// the subcommand, exactly as against `pmove monitor -expose`.
	logs := logbuf.New(16)
	logs.With("telemetry").Warn(context.Background(), "sink unreachable", "journal_cap", "256")
	logs.With("daemon").Info(context.Background(), "op complete", "op", "monitor")
	srv := expose.NewServer(introspect.New(), nil, logs)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := cmdLogs([]string{"-addr", srv.Addr(), "-level", "warn", "-component", "telemetry"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdLogs([]string{"-addr", srv.Addr(), "-json", "-limit", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdLogs([]string{"-addr", srv.Addr(), "-level", "loud"}); err == nil {
		t.Fatal("unknown level accepted")
	}
	if err := cmdLogs([]string{"-addr", "127.0.0.1:1"}); err == nil {
		t.Fatal("unreachable plane accepted")
	}
}

func TestCmdObserve(t *testing.T) {
	if err := cmdObserve([]string{"-host", "csl", "-kernel", "ddot", "-threads", "4", "-sweeps", "200"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdObserve([]string{"-host", "csl", "-kernel", "fft"}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestCmdCARM(t *testing.T) {
	if err := cmdCARM([]string{"-host", "zen3", "-threads", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdBench(t *testing.T) {
	if err := cmdBench([]string{"-host", "icl", "-name", "stream", "-threads", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBench([]string{"-host", "icl", "-name", "hpcg", "-threads", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBench([]string{"-name", "linpack"}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestCmdAbst(t *testing.T) {
	if err := cmdAbst([]string{"-arch", "zen3", "-event", "L3_HIT"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAbst([]string{"-arch", "cascade", "-event", "L3_HIT"}); err == nil {
		t.Fatal("Table I says Not Supported — the CLI should error")
	}
}

func TestCmdWhatIf(t *testing.T) {
	if err := cmdWhatIf([]string{"-baseline", "icl", "-kernel", "triad", "-threads", "8", "-wss", "1048576"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdWhatIf([]string{"-baseline", "cray1"}); err == nil {
		t.Fatal("unknown baseline accepted")
	}
}

func TestCmdScan(t *testing.T) {
	if err := cmdScan([]string{"-host", "csl", "-threads", "8"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdCluster(t *testing.T) {
	if err := cmdCluster([]string{"-preset", "icl", "-nodes", "2", "-jobs", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdQuery(t *testing.T) {
	// Generated aggregate summaries, windowed, repeated so the second
	// pass exercises the result cache.
	if err := cmdQuery([]string{"-host", "csl", "-kernel", "ddot", "-threads", "4",
		"-freq", "8", "-agg", "mean", "-window", "250ms"}); err != nil {
		t.Fatal(err)
	}
	// A verbatim statement runs as-is (cache bypassed, fixed workers).
	if err := cmdQuery([]string{"-host", "csl", "-kernel", "ddot", "-threads", "4",
		"-freq", "8", "-stmt", `SELECT p99("_cpu0"), count("_cpu0") FROM "kernel_percpu_cpu_idle" GROUP BY time(250ms)`,
		"-workers", "4", "-nocache"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-host", "csl", "-stmt", `SELECT FROM`}); err == nil {
		t.Fatal("unparseable statement accepted")
	}
	if err := cmdQuery([]string{"-host", "csl", "-kernel", "ddot", "-threads", "4",
		"-freq", "8", "-agg", "p200"}); err == nil {
		t.Fatal("out-of-range percentile accepted")
	}
	if err := cmdQuery([]string{"-host", "pdp11"}); err == nil {
		t.Fatal("unknown host accepted")
	}
}
