package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
)

// traceNote is printed with every traced result.
const traceNote = "campaigns are driven as campaign.Manager drives them — core.NewCampaign, " +
	"then core.BuildWorkflow with each Activity.Run wrapped in a span and engine.RunContext — " +
	"because only the Manager reaches those layers in the untraced run; provenance spans wrap " +
	"prov.DB.Query on the running campaigns' databases"

// phase is the outcome of one replay of the workload.
type phase struct {
	walls     []float64 // execution wall per campaign, seconds
	queueWait latencies // due → campaign engine built
	late      latencies // generator lateness
	refused   int
	inUse     []float64 // CPU-pool tokens in use, sampled
	used      map[int]bool
}

// runTraced replays the workload in four quarters of the window —
// untraced, traced, traced, untraced — so warm-up and drift fall on
// both sides and the difference of the median campaign walls is the
// tracing overhead. Per-layer metrics come from the traced quarters.
func (b *bench) runTraced(ctx context.Context) ([]int, error) {
	quarter := b.window / 4
	plainRP := &replayer{p: b.p}
	tr := newTracer()
	rp := &replayer{tr: tr, p: b.p}
	plain, traced := &phase{used: map[int]bool{}}, &phase{used: map[int]bool{}}
	for _, run := range []struct {
		rp *replayer
		ph *phase
	}{{plainRP, plain}, {rp, traced}, {rp, traced}, {plainRP, plain}} {
		if err := b.replay(ctx, run.rp, quarter, run.ph); err != nil {
			return nil, err
		}
	}
	rp.layerMetrics(b.add)
	b.add("campaign.queue_wait_ms", median(traced.queueWait), "ms")
	b.add("campaign.refused", float64(traced.refused), "count")
	b.add("parallel.in_use_mean", mean(traced.inUse), "tokens")
	b.add("loadgen.late_p99_ms", quantile(traced.late, 0.99), "ms")
	overhead := median(traced.walls) - median(plain.walls)
	b.add("trace.overhead_ms", overhead*1000, "ms")
	b.add("trace.overhead_frac", overhead/median(plain.walls), "ratio")
	b.add("trace.campaigns", float64(len(traced.walls)), "count")
	b.report["trace_note"] = traceNote
	b.report["untraced_campaign_wall_s"] = median(plain.walls)
	b.report["traced_campaign_wall_s"] = median(traced.walls)
	if err := tr.write(filepath.Join(".bench_build", "traces"),
		fmt.Sprintf("%s-seed%d.json", b.in.Workload, b.in.Seed)); err != nil {
		return nil, err
	}
	var used []int
	for k := range b.in.Campaigns {
		if plain.used[k] || traced.used[k] {
			used = append(used, k)
		}
	}
	return used, nil
}

// replay runs the workload's campaigns through rp for d: the screens'
// list in a closed loop, or serve-mixed's schedule with one FIFO queue
// per tenant — the Manager's admission for two tenants under
// serveLimits. A monitor queries the running campaigns' provenance as
// the untraced run's monitor does.
func (b *bench) replay(ctx context.Context, rp *replayer, d time.Duration, ph *phase) error {
	reg := &registry{}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		monitor(stop, reg, monitorThink, &b.ops)
	}()
	go poolSampler(stop, &ph.inUse, &bg)
	defer func() {
		close(stop)
		bg.Wait()
	}()

	var mu sync.Mutex
	var firstErr error
	// runOne executes campaign input k, submitted at due: its queue
	// wait runs until the campaign's engine exists, its wall from then
	// until it completes.
	runOne := func(k int, due time.Time) {
		cid := b.cids.Add(1)
		c := b.in.Campaigns[k]
		var tgt *dbTarget
		var t time.Time
		camp, err := rp.execute(ctx, cid, c, func(camp *core.Campaign) {
			t = time.Now()
			mu.Lock()
			ph.queueWait.add(t.Sub(due))
			mu.Unlock()
			tgt = &dbTarget{camp: camp, sqls: monitorSQL(c), tr: rp.tr, cid: cid}
			reg.add(tgt)
		})
		wall := time.Since(t)
		if tgt != nil {
			reg.remove(tgt)
		}
		b.op(err)
		if err != nil {
			return
		}
		o, err := campaignOutcome(camp)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			firstErr = err
			return
		}
		ph.walls = append(ph.walls, wall.Seconds())
		ph.used[k] = true
		b.observe(k, o)
	}

	t0 := time.Now()
	if b.in.Workload != wlServe {
		// Closed loop: each submission is due when the previous
		// campaign completes; the generator's lateness is its own
		// delay in issuing it.
		due := t0
		for i := 0; time.Since(t0) < d; i++ {
			ph.late.add(time.Since(due))
			runOne(i%len(b.in.Campaigns), time.Now())
			due = time.Now()
		}
		return firstErr
	}

	type queued struct {
		k   int
		due time.Time
	}
	queues := map[string]chan queued{}
	var workers sync.WaitGroup
	for _, tenant := range serveTenants {
		// Sized to the schedule: the dispatcher never blocks, and
		// refusals are decided on the queue length instead.
		ch := make(chan queued, len(b.in.Schedule))
		queues[tenant] = ch
		workers.Add(1)
		go func() {
			defer workers.Done()
			for q := range ch {
				runOne(q.k, q.due)
			}
		}()
	}
	for i, s := range b.in.Schedule {
		if s.Due >= d {
			break
		}
		due := t0.Add(s.Due)
		time.Sleep(time.Until(due))
		ph.late.add(time.Since(due))
		ch := queues[s.Tenant]
		if len(ch) >= serveLimits.MaxQueuedPerTenant {
			ph.refused++
			b.op(fmt.Errorf("submission %d refused: tenant %s queue full", i, s.Tenant))
			continue
		}
		ch <- queued{k: s.Input, due: due}
	}
	for _, ch := range queues {
		close(ch)
	}
	workers.Wait()
	return firstErr
}
