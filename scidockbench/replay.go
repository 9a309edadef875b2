package main

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/prep"
	"repro/internal/sched"
	"repro/internal/workflow"
)

// replayer executes campaigns with the calls campaign.Manager's run
// goroutine makes — core.NewCampaign on a config charged to a fresh
// account of the shared CPU pool, then each program's workflow on the
// campaign's engine. With a tracer it builds every workflow with
// core.BuildWorkflow, wraps each Activity.Run in a span and drives
// engine.RunContext itself; without one it calls Campaign.Execute,
// exactly as the Manager does.
type replayer struct {
	tr *tracer // nil: untraced
	p  *prepared

	mu   sync.Mutex
	runs []replayed
}

// replayed is what the trace keeps of one executed campaign.
type replayed struct {
	fsBytes       int64
	hactRows      int64
	retries       int
	aborted       int
	mapSets       int
	autogridCalls int
}

// programs mirrors the workflows core.Campaign.Execute runs per mode.
func programs(m core.Mode) []prep.Program {
	switch m {
	case core.ModeVina:
		return []prep.Program{prep.ProgramVina}
	case core.ModeAdaptive:
		return []prep.Program{prep.ProgramAD4, prep.ProgramVina}
	default:
		return []prep.Program{prep.ProgramAD4}
	}
}

// execute runs one campaign; onStart receives the campaign once its
// provenance database exists, so a monitor can query it mid-run.
func (rp *replayer) execute(ctx context.Context, cid int64, c campaignInput, onStart func(*core.Campaign)) (*core.Campaign, error) {
	cfg, err := c.config()
	if err != nil {
		return nil, err
	}
	acct := parallel.Tokens().NewAccount()
	defer acct.Close()
	cfg.Tokens = acct

	var root int
	if rp.tr != nil {
		root = rp.tr.begin("campaign", -1, cid)
	}
	camp, err := core.NewCampaign(cfg)
	if err != nil {
		return nil, err
	}
	if onStart != nil {
		onStart(camp)
	}
	if rp.tr == nil {
		return camp, camp.Execute(ctx)
	}

	var rec replayed
	input := core.InputRelation(camp.Config.Dataset, camp.Config.ExpDir)
	for _, prog := range programs(camp.Config.Mode) {
		w, err := core.BuildWorkflow(camp.Config, prog)
		if err != nil {
			return camp, err
		}
		runSpan := rp.tr.begin("engine.run", root, cid)
		keys := &keySet{m: map[string]bool{}}
		for _, a := range w.Activities {
			rp.wrap(a, runSpan, cid, keys)
		}
		rep, err := camp.Engine.RunContext(ctx, w, input)
		rp.tr.end(runSpan)
		if rep != nil {
			camp.Reports = append(camp.Reports, rep)
			rec.retries += rep.Failures
			rec.aborted += rep.Aborted
		}
		sets, calls := keys.counts()
		rec.mapSets += sets
		rec.autogridCalls += calls
		if err != nil {
			return camp, fmt.Errorf("%s workflow: %w", prog, err)
		}
	}
	rp.tr.end(root)
	rec.fsBytes = camp.Engine.FS.TotalBytes()
	if res, err := camp.Engine.DB.Query("SELECT count(*) FROM hactivation"); err == nil && len(res.Rows) == 1 {
		if n, ok := res.Rows[0][0].(int64); ok {
			rec.hactRows = n
		}
	}
	rp.mu.Lock()
	rp.runs = append(rp.runs, rec)
	rp.mu.Unlock()
	return camp, nil
}

// keySet counts AutoGrid calls and the distinct map sets they need.
type keySet struct {
	mu    sync.Mutex
	m     map[string]bool
	calls int
}

func (k *keySet) add(key string) {
	k.mu.Lock()
	k.m[key] = true
	k.calls++
	k.mu.Unlock()
}

// counts returns the distinct map sets and the calls seen.
func (k *keySet) counts() (sets, calls int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.m), k.calls
}

// wrap replaces an activity body with one that records a span around
// the original call, parented to the engine run that dispatched it.
func (rp *replayer) wrap(a *workflow.Activity, parent int, cid int64, keys *keySet) {
	run := a.Run
	if run == nil {
		return
	}
	name := "core." + a.Tag
	isGrid := a.Tag == sched.TagAutoGrid
	a.Run = func(in workflow.Tuple) (*workflow.ActivationResult, error) {
		id := rp.tr.begin(name, parent, cid)
		res, err := run(in)
		rp.tr.end(id)
		if isGrid && err == nil {
			keys.add(in[core.FieldReceptor] + "|" + rp.p.ligKey[in[core.FieldLigand]])
		}
		return res, err
	}
}

// prepTags are the seven activities every SciDock workflow runs
// before docking, in chain order.
var prepTags = []string{
	sched.TagBabel, sched.TagLigPrep, sched.TagRecPrep, sched.TagGPF, sched.TagAutoGrid,
	sched.TagFilter, sched.TagDockPrep,
}

// layerMetrics derives the per-layer metrics from the spans and
// campaign records of a traced phase. The docking activity is
// reported as core.dock whichever program ran it, with each program's
// call count beside it, so no time metric reads a constant 0 on the
// workload that never runs that program.
func (rp *replayer) layerMetrics(add func(name string, v float64, unit string)) {
	spans := rp.tr.snapshot()
	byTag := map[string][]float64{}
	children := map[int][]span{}
	var runs []int
	for i, s := range spans {
		switch {
		case s.Name == "engine.run":
			runs = append(runs, i)
		case strings.HasPrefix(s.Name, "core."):
			tag := s.Name[len("core."):]
			byTag[tag] = append(byTag[tag], ms(s.dur()))
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	sum := func(xs []float64) float64 {
		var t float64
		for _, x := range xs {
			t += x / 1000
		}
		return t
	}
	var busyAll float64
	for _, tag := range prepTags {
		d := byTag[tag]
		busyAll += sum(d)
		add("core."+tag+".busy_s", sum(d), "s")
		add("core."+tag+".calls", float64(len(d)), "count")
		add("core."+tag+".p50_ms", median(d), "ms")
	}
	dock := append(append([]float64(nil), byTag[sched.TagDockAD4]...), byTag[sched.TagDockVina]...)
	busyAll += sum(dock)
	add("core.dock.busy_s", sum(dock), "s")
	add("core.dock.calls", float64(len(dock)), "count")
	add("core.dock.p50_ms", median(dock), "ms")
	add("core."+sched.TagDockAD4+".calls", float64(len(byTag[sched.TagDockAD4])), "count")
	add("core."+sched.TagDockVina+".calls", float64(len(byTag[sched.TagDockVina])), "count")
	add("core.dock_share", sum(dock)/max(busyAll, 1e-9), "ratio")

	var runS, selfS float64
	for _, i := range runs {
		runS += spans[i].dur().Seconds()
		selfS += selfTime(spans[i], children[i]).Seconds()
	}
	add("engine.run_s", runS, "s")
	add("engine.self_s", selfS, "s")
	add("engine.body_concurrency", busyAll/max(runS, 1e-9), "ratio")

	var retries, aborted, mapSets, gridCalls int
	var fsBytes, rows []float64
	for _, r := range rp.runs {
		retries += r.retries
		aborted += r.aborted
		mapSets += r.mapSets
		gridCalls += r.autogridCalls
		fsBytes = append(fsBytes, float64(r.fsBytes))
		rows = append(rows, float64(r.hactRows))
	}
	add("engine.retries", float64(retries), "count")
	add("engine.aborted", float64(aborted), "count")
	add("grid.map_sets", float64(mapSets), "count")
	add("grid.memo_hit_ratio", 1-float64(mapSets)/float64(max(gridCalls, 1)), "ratio")
	add("prov.hactivation_rows", median(rows), "count")
	add("simfs.bytes", median(fsBytes), "bytes")
	for _, q := range []string{"fig10", "fig11", "table3", "steering"} {
		var d []float64
		for _, s := range spans {
			if s.Name == "prov.query_"+q {
				d = append(d, ms(s.dur()))
			}
		}
		add("prov.query_"+q+"_ms", median(d), "ms")
	}
}
