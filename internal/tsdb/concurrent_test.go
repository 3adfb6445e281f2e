package tsdb

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentWritersAndReaders stresses the DB with parallel telemetry
// shippers and dashboard readers — the host's actual workload when
// several targets report at once.
func TestConcurrentWritersAndReaders(t *testing.T) {
	db := New()
	const writers, points = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			meas := fmt.Sprintf("m%d", w%4) // measurements shared across writers
			for i := 0; i < points; i++ {
				err := db.WriteBatchContext(context.Background(), []Point{{
					Measurement: meas,
					Tags:        map[string]string{"tag": fmt.Sprintf("w%d", w)},
					Fields:      map[string]float64{"v": float64(i)},
					Time:        int64(w*points + i),
				}})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Readers run concurrently with the writers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := db.ExecuteContext(context.Background(), QueryRequest{Statement: fmt.Sprintf(`SELECT "v" FROM "m%d"`, r)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	pts, vals := db.Stats()
	if pts != writers*points || vals != writers*points {
		t.Fatalf("stats: %d/%d, want %d", pts, vals, writers*points)
	}
	// Every measurement's rows are time-ordered despite interleaving.
	for _, m := range db.Measurements() {
		res, err := db.ExecuteContext(context.Background(), QueryRequest{Statement: fmt.Sprintf(`SELECT "v" FROM "%s"`, m)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(res.Rows); i++ {
			if res.Rows[i].Time < res.Rows[i-1].Time {
				t.Fatalf("%s: rows out of order after concurrent writes", m)
			}
		}
	}
}

// TestConcurrentRetention runs retention enforcement against live writers.
func TestConcurrentRetention(t *testing.T) {
	db := New()
	db.SetRetention(RetentionPolicy{Name: "r", Duration: 1000})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 2000; i++ {
			_ = db.WriteBatchContext(context.Background(), []Point{{Measurement: "m", Fields: map[string]float64{"v": 1}, Time: i}})
		}
	}()
	go func() {
		defer wg.Done()
		for i := int64(0); i < 50; i++ {
			db.EnforceRetention(i * 40)
		}
	}()
	wg.Wait()
	db.EnforceRetention(2000)
	res, err := db.ExecuteContext(context.Background(), QueryRequest{Statement: `SELECT "v" FROM "m"`})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.Time < 1000 {
			t.Fatalf("expired point at %d survived", r.Time)
		}
	}
}
