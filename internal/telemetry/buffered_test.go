package telemetry

import (
	"context"
	"testing"

	"pmove/internal/tsdb"
)

// TestBufferedPipelineNeverDrops covers the ablation switch: the queued
// pipeline trades losses for staleness.
func TestBufferedPipelineNeverDrops(t *testing.T) {
	cfg := DefaultPipeline()
	cfg.Buffered = true
	cfg.InsertBaseSeconds = 0.1 // heavy pressure
	cfg.StallProb = 0
	col := NewCollector(tsdb.New(), cfg)
	s := []Sample{{Metric: "m", Values: map[string]float64{"a": 1}}}
	for i := 0; i < 20; i++ {
		if err := col.OfferContext(context.Background(), float64(i)*0.01, s, "t", false); err != nil {
			t.Fatal(err)
		}
	}
	if col.Lost != 0 {
		t.Fatalf("buffered pipeline lost %d", col.Lost)
	}
	if col.Inserted != 20 {
		t.Fatalf("inserted %d, want 20", col.Inserted)
	}
	// Backlog must have built up: the queue is absorbing the pressure.
	if col.MaxLagSeconds < 0.5 {
		t.Errorf("max lag %.3fs — queue should have grown under pressure", col.MaxLagSeconds)
	}
	if col.QueuedDelay == 0 {
		t.Error("final report should have waited behind the queue")
	}
}

// TestUnbufferedLagBounded: without buffering, the lag never exceeds one
// report's cost (the defining property of the paper's design).
func TestUnbufferedLagBounded(t *testing.T) {
	cfg := DefaultPipeline()
	cfg.InsertBaseSeconds = 0.1
	cfg.InsertPerValueSeconds = 0
	cfg.StallProb = 0
	col := NewCollector(tsdb.New(), cfg)
	s := []Sample{{Metric: "m", Values: map[string]float64{"a": 1}}}
	for i := 0; i < 20; i++ {
		if err := col.OfferContext(context.Background(), float64(i)*0.01, s, "t", false); err != nil {
			t.Fatal(err)
		}
	}
	if col.Lost == 0 {
		t.Fatal("pressure should cause drops without a buffer")
	}
	// One report costs at most ~0.13s with jitter; lag stays in that band.
	if col.MaxLagSeconds > 0.2 {
		t.Errorf("unbuffered lag %.3fs exceeds a single report cost", col.MaxLagSeconds)
	}
}
