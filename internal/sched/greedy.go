package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cloud"
)

// Activation is one schedulable unit: an (activity, tuple) pair with
// its simulated execution attempts (failed tries then the success).
type Activation struct {
	ID       int64
	Tag      string
	Key      string    // stable identity, e.g. "autodock4|0E6_2HHN"
	Attempts []float64 // seconds on a reference core, per attempt
	IOTime   float64   // shared-FS staging time added once
	// Estimate is the scheduler's cost belief for ordering decisions.
	// SciCumulus estimates from provenance history (it cannot know
	// true durations in advance); zero means "use the true cost"
	// (oracle ordering, the ablation baseline).
	Estimate float64
}

// TotalCost returns the reference-core seconds across all attempts.
func (a Activation) TotalCost() float64 {
	var s float64
	for _, d := range a.Attempts {
		s += d
	}
	return s + a.IOTime
}

// PlanningCost is the weight the greedy scheduler orders by: the
// provenance estimate when present, the true cost otherwise.
func (a Activation) PlanningCost() float64 {
	if a.Estimate > 0 {
		return a.Estimate
	}
	return a.TotalCost()
}

// Placement is the scheduler's decision for one activation.
type Placement struct {
	Activation Activation
	VMID       string
	Core       int
	Start      float64 // virtual seconds
	End        float64
	Failures   int
}

// coreState tracks one worker core during planning.
type coreState struct {
	vm   *cloud.VM
	core int
}

// coreKey identifies a core across Place calls (fleets may grow or
// shrink between calls under adaptive elasticity).
type coreKey struct {
	vmID string
	core int
}

// eligibleCores enumerates the usable cores of a fleet in stable
// (fleet, core-index) order, honoring the worker cap.
func eligibleCores(vms []*cloud.VM, cap int) ([]coreState, error) {
	if len(vms) == 0 {
		return nil, fmt.Errorf("sched: no VMs available")
	}
	var cores []coreState
	for _, vm := range vms {
		for c := 0; c < vm.Type.Cores; c++ {
			if cap > 0 && len(cores) >= cap {
				break
			}
			cores = append(cores, coreState{vm: vm, core: c})
		}
	}
	if len(cores) == 0 {
		return nil, fmt.Errorf("sched: fleet has no cores")
	}
	return cores, nil
}

// Scheduler is the online placement interface: the dataflow runtime
// hands activations over one at a time, the moment they become ready,
// and the scheduler assigns each to a core immediately (SciCumulus'
// dynamic activation dispatch). Implementations keep per-run core
// availability state between calls; Reset clears it for a fresh run.
// The legacy stage-batch contract survives as the Batch adapter.
type Scheduler interface {
	Place(now float64, act Activation, fleet []*cloud.VM) (Placement, error)
	Reset()
}

// Greedy is SciCumulus' native weighted-cost greedy scheduler: it
// dispatches each ready activation to the core with the earliest
// effective availability. Dispatch decisions are serialized through
// the master node, whose per-decision planning time grows with the
// fleet size — the overhead the paper holds responsible for the
// efficiency drop between 32 and 128 cores (Figure 9). Cost weighting
// enters through the order activations are offered: the dataflow
// dispatcher drains ready work heaviest-first, and the Batch adapter
// replays whole stages in the same LPT order.
type Greedy struct {
	// MasterDelayPerVM is the planning time (seconds) one dispatch
	// decision costs per VM in the fleet. The calibrated default
	// reproduces Figure 9's efficiency curve.
	MasterDelayPerVM float64
	// WorkerCap bounds the number of usable cores (the paper's
	// "2-core" runs lease a 4-core m3.xlarge but use 2 workers).
	WorkerCap int

	masterFree float64
	freeAt     map[coreKey]float64
}

// NewGreedy returns the calibrated scheduler. The per-VM master delay
// is fitted so the 10,000-pair sweep lands on the paper's Figure 7-9
// anchors (≈95% improvement at 32 cores, visible efficiency loss at
// 128).
func NewGreedy() *Greedy {
	return &Greedy{MasterDelayPerVM: 0.02}
}

// Reset clears the placement state for a fresh run.
func (g *Greedy) Reset() {
	g.masterFree = 0
	g.freeAt = nil
}

// Place assigns one ready activation to the earliest-available core
// at or after now. Per-core start times are monotone across calls
// (cores only fill forward), which is what keeps streamed provenance
// timestamps monotone per core.
func (g *Greedy) Place(now float64, a Activation, fleet []*cloud.VM) (Placement, error) {
	cores, err := eligibleCores(fleet, g.WorkerCap)
	if err != nil {
		return Placement{}, err
	}
	if g.freeAt == nil {
		g.freeAt = make(map[coreKey]float64)
	}
	// The master plans this dispatch (serialized).
	dispatchAt := math.Max(g.masterFree, now) + g.MasterDelayPerVM*float64(len(fleet))
	g.masterFree = dispatchAt
	// Earliest-available core (first in fleet order wins ties).
	best := cores[0]
	bestFree := g.coreFree(best)
	for _, c := range cores[1:] {
		if f := g.coreFree(c); f < bestFree {
			best, bestFree = c, f
		}
	}
	start := math.Max(math.Max(bestFree, dispatchAt), now)
	speed := best.vm.Speed(start)
	dur := a.IOTime
	for _, attempt := range a.Attempts {
		dur += attempt / speed
	}
	p := Placement{
		Activation: a,
		VMID:       best.vm.ID,
		Core:       best.core,
		Start:      start,
		End:        start + dur,
		Failures:   len(a.Attempts) - 1,
	}
	g.freeAt[coreKey{best.vm.ID, best.core}] = p.End
	return p, nil
}

// coreFree returns when a core next becomes available; cores not yet
// used this run are free once their VM has booted.
func (g *Greedy) coreFree(c coreState) float64 {
	if f, ok := g.freeAt[coreKey{c.vm.ID, c.core}]; ok {
		return f
	}
	return c.vm.ReadyAt
}

// batchOrder replays a stage heaviest-first (longest believed
// processing time first), the SciCumulus weighted greedy.
func (g *Greedy) batchOrder(acts []Activation) []int {
	order := make([]int, len(acts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return acts[order[i]].PlanningCost() > acts[order[j]].PlanningCost()
	})
	return order
}

// RoundRobin is the naive baseline scheduler used by the ablation
// benchmarks: activations are dealt to cores in arrival order with no
// cost weighting and no master serialization.
type RoundRobin struct {
	WorkerCap int

	next   int
	freeAt map[coreKey]float64
}

// Reset clears the placement state for a fresh run.
func (rr *RoundRobin) Reset() {
	rr.next = 0
	rr.freeAt = nil
}

// Place deals the activation to the next core in rotation.
func (rr *RoundRobin) Place(now float64, a Activation, fleet []*cloud.VM) (Placement, error) {
	cores, err := eligibleCores(fleet, rr.WorkerCap)
	if err != nil {
		return Placement{}, err
	}
	if rr.freeAt == nil {
		rr.freeAt = make(map[coreKey]float64)
	}
	c := cores[rr.next%len(cores)]
	rr.next++
	key := coreKey{c.vm.ID, c.core}
	free, ok := rr.freeAt[key]
	if !ok {
		free = c.vm.ReadyAt
	}
	start := math.Max(free, now)
	speed := c.vm.Speed(start)
	dur := a.IOTime
	for _, attempt := range a.Attempts {
		dur += attempt / speed
	}
	p := Placement{
		Activation: a, VMID: c.vm.ID, Core: c.core,
		Start: start, End: start + dur, Failures: len(a.Attempts) - 1,
	}
	rr.freeAt[key] = p.End
	return p, nil
}

// batchOrderer lets a scheduler pick the order Batch replays a stage
// in; schedulers without the method place in arrival order.
type batchOrderer interface {
	batchOrder(acts []Activation) []int
}

// Batch adapts an online Scheduler to whole-stage planning: placement
// state is reset (every stage starts with an idle fleet), the stage's
// activations are placed in the scheduler's batch order, and the
// stage makespan (virtual end of the last activation, measured from
// startAt) is returned. Its only production caller is the Figure 7–9
// performance sweep (core/perf.go), which replays the paper's
// stage-by-stage execution model; the engine places activations
// online through Scheduler.Place.
type Batch struct {
	S Scheduler
}

// Schedule plans one stage: all activations are independent and may
// run concurrently.
func (b Batch) Schedule(startAt float64, acts []Activation, vms []*cloud.VM) ([]Placement, float64, error) {
	if len(vms) == 0 {
		return nil, 0, fmt.Errorf("sched: no VMs available")
	}
	b.S.Reset()
	order := make([]int, len(acts))
	for i := range order {
		order[i] = i
	}
	if o, ok := b.S.(batchOrderer); ok {
		order = o.batchOrder(acts)
	}
	placements := make([]Placement, 0, len(acts))
	end := startAt
	for _, idx := range order {
		p, err := b.S.Place(startAt, acts[idx], vms)
		if err != nil {
			return nil, 0, err
		}
		if p.End > end {
			end = p.End
		}
		placements = append(placements, p)
	}
	return placements, end - startAt, nil
}
