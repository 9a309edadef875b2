// Campaign-service benchmarks: the resident multi-campaign runtime
// under concurrent load. One small campaign alone versus several
// submitted together through the Manager measures the cost of
// sharing the worker-token pool: aggregate wall-clock, per-campaign
// completion times and the fairness spread the per-campaign token
// accounting is supposed to keep tight. cmd/dockbench serializes the
// report to BENCH_campaigns.json.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/parallel"
)

// CampaignRun is one campaign's outcome inside a concurrency level.
type CampaignRun struct {
	Seed int64 `json:"seed"`
	// WallSecs is the wall-clock time from the common submission
	// instant to this campaign's completion.
	WallSecs float64 `json:"wall_secs"`
	// VirtualTET is the campaign's deterministic virtual makespan —
	// identical to a solo run of the same seed by construction.
	VirtualTET  float64 `json:"virtual_tet_secs"`
	Activations int     `json:"activations"`
}

// CampaignsBench is one concurrency level of the comparison.
type CampaignsBench struct {
	Concurrency   int     `json:"concurrency"`
	TotalWallSecs float64 `json:"total_wall_secs"`
	// FairnessSpread is max/min per-campaign wall-clock within the
	// level: 1.0 means every campaign finished together, large values
	// mean the pool starved some campaigns behind others.
	FairnessSpread float64 `json:"fairness_spread"`
	// PoolCapacity is the shared worker-token pool the campaigns'
	// per-campaign accounts divide fairly.
	PoolCapacity int           `json:"pool_capacity"`
	Runs         []CampaignRun `json:"runs"`
}

// CampaignsReport is the full concurrent-campaigns result set.
type CampaignsReport struct {
	Workload   string `json:"workload"`
	Pairs      int    `json:"pairs_per_campaign"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Note qualifies the numbers: wall-clock on a single-CPU host
	// time-shares everything, so the interesting signal is the
	// fairness spread, not the aggregate speedup.
	Note    string           `json:"note"`
	Entries []CampaignsBench `json:"entries"`
}

// JSON renders the report for BENCH_campaigns.json.
func (r *CampaignsReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders the human-readable table dockbench prints.
func (r *CampaignsReport) String() string {
	var sb strings.Builder
	sb.WriteString("CAMPAIGN-SERVICE BENCHMARKS (concurrent campaigns through the Manager)\n")
	fmt.Fprintf(&sb, "workload: %s (%d pairs per campaign), GOMAXPROCS=%d, NumCPU=%d\n",
		r.Workload, r.Pairs, r.GoMaxProcs, r.NumCPU)
	fmt.Fprintf(&sb, "note: %s\n", r.Note)
	fmt.Fprintf(&sb, "%11s %10s %14s %8s\n",
		"concurrency", "wall (s)", "fairness", "pool")
	for _, b := range r.Entries {
		fmt.Fprintf(&sb, "%11d %10.2f %13.2fx %8d\n",
			b.Concurrency, b.TotalWallSecs, b.FairnessSpread, b.PoolCapacity)
		for _, run := range b.Runs {
			fmt.Fprintf(&sb, "%11s   seed %-6d wall %6.2fs  virtual TET %8.1fs  activations %d\n",
				"", run.Seed, run.WallSecs, run.VirtualTET, run.Activations)
		}
	}
	return sb.String()
}

func (s *Suite) campaignsSpec(seed int64) campaign.Spec {
	sp := campaign.Spec{
		Mode: "ad4", Receptors: 6, Ligands: 2, Cores: 8,
		Effort: "smoke", Seed: seed, DisableFailures: true,
	}
	if s.Quick {
		sp.Receptors, sp.Ligands = 3, 1
	}
	return sp
}

// campaignsLevel submits len(seeds) campaigns at once through a
// fresh Manager over a private token pool and waits for all of them,
// timing each from the common submission instant.
func (s *Suite) campaignsLevel(poolCap int, seeds []int64) (CampaignsBench, error) {
	bench := CampaignsBench{Concurrency: len(seeds), PoolCapacity: poolCap}
	m := campaign.NewManager(parallel.NewPool(poolCap), campaign.Limits{
		MaxRunning:          len(seeds),
		MaxRunningPerTenant: len(seeds),
		MaxQueuedPerTenant:  len(seeds),
	})
	ids := make([]int64, len(seeds))
	for i, seed := range seeds {
		id, err := m.Submit(s.campaignsSpec(seed))
		if err != nil {
			return bench, fmt.Errorf("experiments: campaigns submit seed=%d: %w", seed, err)
		}
		ids[i] = id
	}
	runs := make([]CampaignRun, len(seeds))
	errs := make([]error, len(seeds))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range seeds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			camp, err := m.Wait(context.Background(), ids[i])
			if err != nil {
				errs[i] = err
				return
			}
			run := CampaignRun{Seed: seeds[i], WallSecs: time.Since(start).Seconds()}
			run.VirtualTET = camp.TET()
			for _, rep := range camp.Reports {
				run.Activations += rep.Activations
			}
			runs[i] = run
		}(i)
	}
	wg.Wait()
	bench.TotalWallSecs = time.Since(start).Seconds()
	for i, err := range errs {
		if err != nil {
			return bench, fmt.Errorf("experiments: campaigns seed=%d: %w", seeds[i], err)
		}
	}
	bench.Runs = runs
	minW, maxW := runs[0].WallSecs, runs[0].WallSecs
	for _, run := range runs[1:] {
		minW, maxW = min(minW, run.WallSecs), max(maxW, run.WallSecs)
	}
	if minW > 0 {
		bench.FairnessSpread = maxW / minW
	}
	return bench, nil
}

// Campaigns measures the campaign service under concurrent load: the
// same small campaign run alone and as four concurrent submissions
// with distinct seeds, all sharing one worker-token pool through
// per-campaign accounts. Virtual TETs are unchanged by concurrency
// (the determinism contract); the wall-clock columns show how the
// pool divides real execution among resident campaigns.
func (s *Suite) Campaigns() (*CampaignsReport, error) {
	spec := s.campaignsSpec(0)
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	rep := &CampaignsReport{
		Workload: fmt.Sprintf("SciDock-AD4 %d×%d smoke campaign, failures off",
			spec.Receptors, spec.Ligands),
		Pairs:      cfg.Dataset.NumPairs(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Note: "virtual TETs are per-seed deterministic and unaffected by " +
			"co-residency",
	}
	if runtime.NumCPU() < 2 {
		rep.Note = "single-CPU host: concurrent campaigns time-share one " +
			"core, so total wall grows ~linearly with concurrency and the " +
			"signal here is the fairness spread (per-campaign account fair " +
			"share keeping completion times close), not aggregate speedup; " +
			rep.Note
	}
	const poolCap = 8
	for _, seeds := range [][]int64{
		{101},
		{101, 211, 307, 401},
	} {
		bench, err := s.campaignsLevel(poolCap, seeds)
		if err != nil {
			return nil, err
		}
		rep.Entries = append(rep.Entries, bench)
	}
	return rep, nil
}

// CampaignsText is the ByName-facing wrapper returning the formatted
// table.
func (s *Suite) CampaignsText() (string, error) {
	rep, err := s.Campaigns()
	if err != nil {
		return "", err
	}
	return rep.String(), nil
}
