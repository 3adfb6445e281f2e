package cluster

import (
	"context"
	"fmt"
	"sort"

	"pmove/internal/docdb"
	"pmove/internal/superdb"
)

// Report uploads the cluster's encoded knowledge to a remote SUPERDB
// instance — the paper's "local instances synchronise their KBs to the
// global store": one KB summary per node plus one metadata document per
// finished job. It returns how many of each were shipped. Uploads ride
// the remote's resilient clients, so transient faults retry and a dead
// store fails with a bounded error instead of hanging; cancelling ctx
// aborts the upload in flight.
func (c *Cluster) Report(ctx context.Context, r *superdb.Remote) (nodes, jobs int, err error) {
	ckb, err := c.BuildKB()
	if err != nil {
		return 0, 0, err
	}
	names := make([]string, 0, len(ckb.Nodes))
	for name := range ckb.Nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := r.ReportKBContext(ctx, ckb.Nodes[name]); err != nil {
			return nodes, jobs, fmt.Errorf("cluster: report kb %s: %w", name, err)
		}
		nodes++
	}
	for _, rec := range ckb.Jobs {
		if rec.State != StateFinished {
			continue
		}
		doc, err := docdb.FromValue(map[string]any{
			"_id":             "job:" + rec.ID,
			"name":            rec.Name,
			"user":            rec.User,
			"nodes":           rec.NodeNames,
			"submit_s":        rec.SubmitTime,
			"start_s":         rec.StartTime,
			"end_s":           rec.EndTime,
			"wait_s":          rec.WaitSeconds(),
			"compute_s":       rec.ComputeSecs,
			"comm_s":          rec.CommSecs,
			"comm_bytes":      rec.CommBytes,
			"gflops_per_node": rec.GFLOPSPerNode,
		})
		if err != nil {
			return nodes, jobs, fmt.Errorf("cluster: encode job %s: %w", rec.ID, err)
		}
		if err := r.ReportJobContext(ctx, doc); err != nil {
			return nodes, jobs, fmt.Errorf("cluster: report job %s: %w", rec.ID, err)
		}
		jobs++
	}
	return nodes, jobs, nil
}
