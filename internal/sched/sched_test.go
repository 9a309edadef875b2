package sched

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cloud"
)

func TestCostModelDeterministicAndClamped(t *testing.T) {
	cm := NewCostModel()
	for tag, e := range costTable {
		a := cm.Sample(tag, "0E6_2HHN")
		b := cm.Sample(tag, "0E6_2HHN")
		if a != b {
			t.Errorf("%s: sample not deterministic", tag)
		}
		for i := 0; i < 200; i++ {
			v := cm.Sample(tag, fmt.Sprintf("k%d", i))
			if v < e.min-1e-9 || v > e.max+1e-9 {
				t.Errorf("%s: sample %v outside [%v, %v]", tag, v, e.min, e.max)
			}
		}
	}
}

func TestCostModelMeansApproximateCalibration(t *testing.T) {
	cm := NewCostModel()
	for tag, e := range costTable {
		var sum float64
		n := 3000
		for i := 0; i < n; i++ {
			sum += cm.Sample(tag, fmt.Sprintf("pair%d", i))
		}
		avg := sum / float64(n)
		// Clamping biases the mean; allow 30%.
		if avg < e.mean*0.7 || avg > e.mean*1.3 {
			t.Errorf("%s: empirical mean %.2f vs calibrated %.2f", tag, avg, e.mean)
		}
	}
}

func TestCostModelScaleAndUnknown(t *testing.T) {
	cm := &CostModel{Scale: 0.1}
	full := NewCostModel()
	if got := cm.Sample(TagDockAD4, "x"); math.Abs(got-full.Sample(TagDockAD4, "x")*0.1) > 1e-9 {
		t.Errorf("scale not applied: %v", got)
	}
	if got := cm.Sample("unknown-tag", "x"); got != 0.1 {
		t.Errorf("unknown tag sample = %v", got)
	}
	if full.Mean("unknown") != 0 || !full.Known(TagBabel) || full.Known("nope") {
		t.Error("Known/Mean broken")
	}
}

func TestAttemptsFailureStatistics(t *testing.T) {
	cm := NewCostModel()
	fails := 0
	n := 5000
	for i := 0; i < n; i++ {
		at := cm.Attempts(TagDockAD4, fmt.Sprintf("k%d", i), 100)
		if len(at) < 1 {
			t.Fatal("no attempts")
		}
		if at[len(at)-1] != 100 {
			t.Fatal("final attempt must be the full cost")
		}
		if len(at) > 1 {
			fails++
		}
		for _, d := range at[:len(at)-1] {
			if d <= 0 || d >= 100 {
				t.Fatalf("failed attempt duration %v out of range", d)
			}
		}
	}
	rate := float64(fails) / float64(n)
	if rate < 0.07 || rate > 0.13 {
		t.Errorf("failure rate = %.3f, want ~0.10 (paper §IV.B)", rate)
	}
}

func makeFleet(t *testing.T, cores int) (*cloud.Cluster, []*cloud.VM) {
	t.Helper()
	sim := cloud.NewSim()
	c := cloud.NewCluster(sim)
	vms, err := c.BuildVirtualCluster(cores)
	if err != nil {
		t.Fatal(err)
	}
	return c, vms
}

func acts(n int, cost float64) []Activation {
	out := make([]Activation, n)
	for i := range out {
		out[i] = Activation{
			ID: int64(i), Tag: TagDockAD4, Key: fmt.Sprintf("a%d", i),
			Attempts: []float64{cost},
		}
	}
	return out
}

func TestGreedyScheduleBasic(t *testing.T) {
	_, vms := makeFleet(t, 8)
	g := NewGreedy()
	placements, makespan, err := Batch{S: g}.Schedule(0, acts(16, 100), vms)
	if err != nil {
		t.Fatal(err)
	}
	if len(placements) != 16 {
		t.Fatalf("placements = %d", len(placements))
	}
	// 16 tasks × 100 s on 8 cores ≈ 2 rounds ≈ 200 s (+boot, jitter).
	if makespan < 180 || makespan > 400 {
		t.Errorf("makespan = %v", makespan)
	}
	// No core overlap.
	type key struct {
		vm   string
		core int
	}
	busy := map[key][]Placement{}
	for _, p := range placements {
		busy[key{p.VMID, p.Core}] = append(busy[key{p.VMID, p.Core}], p)
	}
	for k, ps := range busy {
		for i := 0; i < len(ps); i++ {
			for j := i + 1; j < len(ps); j++ {
				a, b := ps[i], ps[j]
				if a.Start < b.End && b.Start < a.End {
					t.Fatalf("overlap on %v: [%v,%v) and [%v,%v)", k, a.Start, a.End, b.Start, b.End)
				}
			}
		}
	}
}

func TestGreedyLPTBeatsRoundRobinOnSkewedLoad(t *testing.T) {
	// Two heavy + many light tasks: LPT starts the heavy ones first.
	_, vms := makeFleet(t, 8)
	var mixed []Activation
	mixed = append(mixed, Activation{ID: 1, Tag: "x", Key: "h1", Attempts: []float64{1000}})
	mixed = append(mixed, Activation{ID: 2, Tag: "x", Key: "h2", Attempts: []float64{900}})
	for i := 0; i < 40; i++ {
		mixed = append(mixed, Activation{ID: int64(10 + i), Tag: "x", Key: fmt.Sprintf("l%d", i), Attempts: []float64{10}})
	}
	g := &Greedy{MasterDelayPerVM: 0}
	_, gm, err := Batch{S: g}.Schedule(0, mixed, vms)
	if err != nil {
		t.Fatal(err)
	}
	rr := &RoundRobin{}
	_, rm, err := Batch{S: rr}.Schedule(0, mixed, vms)
	if err != nil {
		t.Fatal(err)
	}
	if gm > rm {
		t.Errorf("greedy makespan %v worse than round robin %v", gm, rm)
	}
}

func TestMasterOverheadGrowsWithFleet(t *testing.T) {
	// Many short activations: dispatch serialization dominates on a
	// big fleet — the Figure 9 efficiency-degradation mechanism.
	g := NewGreedy()
	short := acts(2000, 2.0)
	_, small, err := Batch{S: g}.Schedule(0, short, fleetVMs(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	_, big, err := Batch{S: g}.Schedule(0, short, fleetVMs(t, 128))
	if err != nil {
		t.Fatal(err)
	}
	idealSmall := 2000 * 2.0 / 8
	idealBig := 2000 * 2.0 / 128
	effSmall := idealSmall / small
	effBig := idealBig / big
	if effBig >= effSmall {
		t.Errorf("efficiency did not degrade: small=%.2f big=%.2f", effSmall, effBig)
	}
}

func fleetVMs(t *testing.T, cores int) []*cloud.VM {
	t.Helper()
	_, vms := makeFleet(t, cores)
	return vms
}

func TestWorkerCap(t *testing.T) {
	_, vms := makeFleet(t, 2) // leases a 4-core m3.xlarge
	g := NewGreedy()
	g.WorkerCap = 2
	placements, _, err := Batch{S: g}.Schedule(0, acts(8, 50), vms)
	if err != nil {
		t.Fatal(err)
	}
	cores := map[int]bool{}
	for _, p := range placements {
		cores[p.Core] = true
	}
	if len(cores) > 2 {
		t.Errorf("used %d cores despite cap 2", len(cores))
	}
}

func TestScheduleErrors(t *testing.T) {
	g := NewGreedy()
	if _, _, err := (Batch{S: g}).Schedule(0, acts(1, 1), nil); err == nil {
		t.Error("empty fleet accepted")
	}
	rr := &RoundRobin{}
	if _, _, err := (Batch{S: rr}).Schedule(0, acts(1, 1), nil); err == nil {
		t.Error("empty fleet accepted by round robin")
	}
}

func TestFailuresExtendDuration(t *testing.T) {
	_, vms := makeFleet(t, 4)
	g := &Greedy{MasterDelayPerVM: 0}
	with := []Activation{{ID: 1, Tag: "x", Key: "k", Attempts: []float64{30, 30, 100}}}
	without := []Activation{{ID: 1, Tag: "x", Key: "k", Attempts: []float64{100}}}
	pw, _, _ := Batch{S: g}.Schedule(0, with, vms)
	po, _, _ := Batch{S: g}.Schedule(0, without, vms)
	if pw[0].End-pw[0].Start <= po[0].End-po[0].Start {
		t.Error("failed attempts did not extend execution")
	}
	if pw[0].Failures != 2 || po[0].Failures != 0 {
		t.Errorf("failure counts: %d, %d", pw[0].Failures, po[0].Failures)
	}
}

func TestAdaptivePolicy(t *testing.T) {
	p := NewAdaptivePolicy()
	if got := p.DesiredCores(0); got != p.MinCores {
		t.Errorf("zero work cores = %d", got)
	}
	// 72000 core-seconds at 3600 s target → 20 cores.
	if got := p.DesiredCores(72000); got != 20 {
		t.Errorf("cores = %d, want 20", got)
	}
	// Huge work clamps to max.
	if got := p.DesiredCores(1e9); got != p.MaxCores {
		t.Errorf("cores = %d, want max %d", got, p.MaxCores)
	}
}

func TestAdaptiveResize(t *testing.T) {
	sim := cloud.NewSim()
	c := cloud.NewCluster(sim)
	p := NewAdaptivePolicy()
	vms, err := p.Resize(c, 16)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, vm := range vms {
		total += vm.Type.Cores
	}
	if total < 16 {
		t.Errorf("grow: %d cores", total)
	}
	vms, err = p.Resize(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	total = 0
	for _, vm := range vms {
		total += vm.Type.Cores
	}
	if total < 4 || total > 8 {
		t.Errorf("shrink: %d cores", total)
	}
}

func TestStageWork(t *testing.T) {
	a := []Activation{
		{Attempts: []float64{10, 90}, IOTime: 5},
		{Attempts: []float64{50}},
	}
	if got := StageWork(a); got != 155 {
		t.Errorf("stage work = %v", got)
	}
}
