package engine

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cloud"
	"repro/internal/prov"
	"repro/internal/sched"
	"repro/internal/workflow"
)

// dfNode is one activation of the dataflow DAG: an (activity, tuple)
// pair whose real body runs on the wall-clock worker pool while its
// virtual placement is decided by the dispatcher.
type dfNode struct {
	act    *workflow.Activity
	actIdx int // topological index of the activity
	tuple  workflow.Tuple

	// Deterministic ready-queue identity: siblings are ordered by the
	// parent's placement sequence and their index among the parent's
	// spawned children; sources and reduce groups use parentSeq -1
	// with their input/group index.
	parentSeq int
	outIdx    int

	readyAt  float64 // virtual time the inputs exist (parent placement end)
	planCost float64 // ready-queue priority weight, set at registration

	group []workflow.Tuple // Reduce only: the group's input tuples

	// Body outcome, written by a pool worker strictly before done is
	// set (both under the dataflow mutex, so the dispatcher observes
	// a complete outcome).
	done    bool
	result  *workflow.ActivationResult
	err     error
	aborted string // non-empty: steering abort reason
	fanErr  error  // operator contract violation (CheckFanOut)

	// children spawned from this node's outputs (non-Reduce
	// dependents), in (dependent, output) order. Their bodies start
	// immediately; their virtual readyAt is this node's placement
	// end.
	children []*dfNode
}

// dfHeap is the dispatcher's ready queue, ordered by virtual ready
// time with heavier (believed) activations first among equals — the
// streaming analogue of the greedy scheduler's LPT stage order.
type dfHeap []*dfNode

func (h dfHeap) Len() int { return len(h) }
func (h dfHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	switch {
	case a.readyAt < b.readyAt:
		return true
	case b.readyAt < a.readyAt:
		return false
	}
	switch {
	case a.planCost > b.planCost:
		return true
	case b.planCost > a.planCost:
		return false
	}
	if a.actIdx != b.actIdx {
		return a.actIdx < b.actIdx
	}
	if a.parentSeq != b.parentSeq {
		return a.parentSeq < b.parentSeq
	}
	return a.outIdx < b.outIdx
}
func (h dfHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *dfHeap) Push(x any)   { *h = append(*h, x.(*dfNode)) }
func (h *dfHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return n
}

// dataflow is the per-run state of the pipelined runtime.
//
// Two planes share it. The wall-clock plane — a bounded worker pool —
// runs activity bodies (the real chemistry) and spawns children the
// moment a body finishes, so downstream tuples never wait for
// stragglers of their stage. The virtual plane — the dispatcher, on
// the caller's goroutine — pops the ready queue in deterministic
// order, waits for that node's body, and streams the placement into
// provenance. Determinism holds because a child becomes ready exactly
// at its parent's placement end, which is never earlier than the
// parent's own ready time: the queue minimum is always safe to place,
// so the virtual timeline is a pure function of the DAG and the cost
// model, independent of goroutine interleaving.
type dataflow struct {
	e     *Engine
	ctx   context.Context
	wkfid int64
	order []*workflow.Activity
	ids   []int64 // hactivity ids, by topo index
	deps  [][]int // downstream activity indexes, by topo index
	fleet []*cloud.VM

	mu        sync.Mutex
	workCond  *sync.Cond // wakes pool workers: queue grew, cancel or shutdown
	doneCond  *sync.Cond // wakes the dispatcher: some body finished, or cancel
	queue     []*dfNode
	shutdown  bool
	cancelled bool // ctx cancelled: workers stop, dispatcher drains

	// Dispatcher-only state (no lock: single goroutine).
	ready      dfHeap
	openSrc    []int // upstream activities not yet closed
	registered []int // nodes ever added to the ready queue
	placed     []int
	closed     []bool
	stats      []ActivityStats
	actStart   []float64          // earliest placement start per activity
	actEnd     []float64          // latest placement end per activity
	outTuples  [][]workflow.Tuple // accepted outputs, placement order
	outEnds    [][]float64        // matching placement ends (reduce barriers)
	frontier   float64            // latest placement end overall
	placeSeq   int
}

// runDataflow executes the workflow on the pipelined runtime. clock
// holds the workflow's virtual start (post-boot) on entry and the
// virtual completion frontier on return.
func (e *Engine) runDataflow(ctx context.Context, order []*workflow.Activity, actIDs map[string]int64, wkfid int64,
	input *workflow.Relation, fleet []*cloud.VM, report *Report, clock *float64) error {

	idx := make(map[string]int, len(order))
	for i, a := range order {
		idx[a.Tag] = i
	}
	d := &dataflow{
		e:          e,
		ctx:        ctx,
		wkfid:      wkfid,
		order:      order,
		ids:        make([]int64, len(order)),
		deps:       make([][]int, len(order)),
		fleet:      fleet,
		openSrc:    make([]int, len(order)),
		registered: make([]int, len(order)),
		placed:     make([]int, len(order)),
		closed:     make([]bool, len(order)),
		stats:      make([]ActivityStats, len(order)),
		actStart:   make([]float64, len(order)),
		actEnd:     make([]float64, len(order)),
		outTuples:  make([][]workflow.Tuple, len(order)),
		outEnds:    make([][]float64, len(order)),
		frontier:   *clock,
	}
	d.workCond = sync.NewCond(&d.mu)
	d.doneCond = sync.NewCond(&d.mu)
	for i, a := range order {
		d.ids[i] = actIDs[a.Tag]
		d.stats[i].Tag = a.Tag
		d.openSrc[i] = len(a.Depends)
		for _, dep := range a.Depends {
			di := idx[dep]
			d.deps[di] = append(d.deps[di], i)
		}
	}
	// A fresh run starts with an idle fleet regardless of what a
	// previous workflow on this engine left behind.
	e.opts.Scheduler.Reset()

	// Seed the DAG: every source activity consumes the full input
	// relation. Bodies are queued first so the pool starts chewing
	// while the dispatcher drains placements.
	for i, a := range order {
		if len(a.Depends) > 0 {
			continue
		}
		if err := d.activityReady(i, len(input.Tuples)); err != nil {
			return err
		}
		for j, t := range input.Tuples {
			n := &dfNode{act: a, actIdx: i, tuple: t, parentSeq: -1, outIdx: j, readyAt: *clock}
			d.mu.Lock()
			d.queue = append(d.queue, n)
			d.mu.Unlock()
			d.register(n)
		}
	}

	workers, releaseTokens := e.grab(e.opts.Parallelism)
	defer releaseTokens()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.worker()
		}()
	}
	d.workCond.Broadcast()

	// Cancellation watch: flips the cancelled flag and wakes both the
	// dispatcher (to drain the ready queue as ABORTED) and the workers
	// (to stop picking up bodies). The stop channel retires the watch
	// when the run ends on its own.
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			d.mu.Lock()
			d.cancelled = true
			d.doneCond.Broadcast()
			d.workCond.Broadcast()
			d.mu.Unlock()
		case <-stop:
		}
	}()

	err := d.dispatch()
	close(stop)

	d.mu.Lock()
	d.shutdown = true
	d.workCond.Broadcast()
	d.mu.Unlock()
	wg.Wait()
	if err != nil && !errors.Is(err, ErrCancelled) {
		return err
	}

	// A cancelled run still reports the work it did (placed
	// activations plus the drained ABORTED tail).
	for i := range order {
		report.PerActivity = append(report.PerActivity, d.stats[i])
		report.Activations += d.stats[i].Activations
		report.Failures += d.stats[i].Failures
		report.Aborted += d.stats[i].Aborted
	}
	if len(order) > 0 {
		report.Outputs = d.outTuples[len(order)-1]
	}
	*clock = d.frontier
	return err
}

// dispatch drains the ready queue: pop the deterministic minimum,
// wait for its wall-clock body, stream its placement into provenance,
// then release the children it unlocked.
func (d *dataflow) dispatch() error {
	for d.ready.Len() > 0 {
		n := heap.Pop(&d.ready).(*dfNode)
		d.mu.Lock()
		if d.ctx.Err() != nil {
			// Synchronous check so a context cancelled before (or
			// between) placements drains deterministically, without
			// racing the watch goroutine.
			d.cancelled = true
			d.workCond.Broadcast()
		}
		for !n.done && !d.cancelled {
			d.doneCond.Wait()
		}
		cancelled := d.cancelled
		d.mu.Unlock()
		if cancelled {
			return d.drainCancelled(n)
		}
		if err := d.place(n); err != nil {
			return err
		}
		if err := d.maybeClose(n.actIdx); err != nil {
			return err
		}
	}
	return nil
}

// drainCancelled empties the ready queue after cancellation: every
// remaining node — whether its wall-clock body ran or not — closes in
// provenance as a zero-cost ABORTED activation at its virtual ready
// time. Only fields immutable since registration are read, so the
// drain never races a pool worker still finishing a body.
func (d *dataflow) drainCancelled(n *dfNode) error {
	e := d.e
	for {
		st := &d.stats[n.actIdx]
		st.Activations++
		st.Aborted++
		d.placed[n.actIdx]++
		e.mu.Lock()
		e.nextTask++
		taskid := e.nextTask
		e.mu.Unlock()
		cmd, cmdErr := workflow.Instantiate(n.act.Template, n.tuple)
		if cmdErr != nil {
			cmd = n.act.Template
		}
		start := e.vt(n.readyAt)
		if err := e.app.InsertActivation(taskid, d.ids[n.actIdx], d.wkfid, prov.StatusAborted,
			start, start, "-", 0, cmd+" # aborted: "+cancelReason); err != nil {
			return err
		}
		if d.ready.Len() == 0 {
			return ErrCancelled
		}
		n = heap.Pop(&d.ready).(*dfNode)
	}
}

// register adds a node to the ready queue, fixing its priority weight
// from what the scheduler is allowed to know: the provenance-history
// estimate when enabled, the cost-model oracle otherwise.
func (d *dataflow) register(n *dfNode) {
	if d.e.opts.ProvenanceEstimates {
		n.planCost = d.e.estimateFor(n.act.Tag)
	} else {
		key := activationKey(n.act.Tag, n.tuple)
		n.planCost = d.e.opts.CostModel.Sample(n.act.Tag, key)
	}
	d.registered[n.actIdx]++
	heap.Push(&d.ready, n)
}

// worker is one wall-clock pool goroutine: it runs activity bodies
// and, on success, immediately spawns the children's bodies — the
// overlap that removes the stage barrier.
func (d *dataflow) worker() {
	for {
		d.mu.Lock()
		for !d.shutdown && !d.cancelled && len(d.queue) == 0 {
			d.workCond.Wait()
		}
		if d.shutdown || d.cancelled {
			d.mu.Unlock()
			return
		}
		n := d.queue[0]
		d.queue = d.queue[1:]
		d.mu.Unlock()

		d.runNode(n)

		d.mu.Lock()
		d.finish(n)
		d.mu.Unlock()
	}
}

// runNode evaluates steering rules and executes the body (outside the
// lock; this is the real chemistry).
func (d *dataflow) runNode(n *dfNode) {
	for _, rule := range d.e.opts.AbortRules {
		if reason, abort := rule(n.act.Tag, n.tuple); abort {
			n.aborted = reason
			return
		}
	}
	if n.act.Op == workflow.Reduce {
		n.result, n.err = runReduceBody(n.act, n.group)
		return
	}
	n.result, n.err = runBody(n.act, n.tuple)
}

// finish publishes a body outcome (caller holds d.mu): children are
// spawned for non-Reduce dependents — Reduce inputs instead gather at
// placement time, preserving the per-group barrier — and the
// dispatcher is woken.
func (d *dataflow) finish(n *dfNode) {
	if !d.cancelled && n.aborted == "" && n.err == nil && n.result != nil {
		n.fanErr = n.act.CheckFanOut(n.result)
		if n.fanErr == nil {
			for _, di := range d.deps[n.actIdx] {
				dep := d.order[di]
				if dep.Op == workflow.Reduce {
					continue
				}
				for _, out := range n.result.Outputs {
					c := &dfNode{act: dep, actIdx: di, tuple: out, outIdx: len(n.children)}
					n.children = append(n.children, c)
					d.queue = append(d.queue, c)
				}
			}
			if len(n.children) > 0 {
				d.workCond.Broadcast()
			}
		}
	}
	n.done = true
	d.doneCond.Broadcast()
}

// runBody executes one activation body, containing panics.
func runBody(act *workflow.Activity, tuple workflow.Tuple) (res *workflow.ActivationResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: activation panicked: %v", r)
		}
	}()
	return act.Run(tuple)
}

// runReduceBody executes a Reduce body, containing panics.
func runReduceBody(act *workflow.Activity, group []workflow.Tuple) (res *workflow.ActivationResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: reduce activation panicked: %v", r)
		}
	}()
	return act.RunReduce(group)
}

// place streams one activation into the virtual timeline and the
// provenance store. Steering aborts and genuine errors record
// terminal rows at the node's ready time; looping activations are
// charged the loop timeout on a core then aborted; successes get
// cost-model attempts, file staging and extractor output.
func (d *dataflow) place(n *dfNode) error {
	e := d.e
	st := &d.stats[n.actIdx]
	actid := d.ids[n.actIdx]
	d.placed[n.actIdx]++
	st.Activations++
	e.mu.Lock()
	e.nextTask++
	taskid := e.nextTask
	e.mu.Unlock()

	key := activationKey(n.act.Tag, n.tuple)
	cmd, cmdErr := workflow.Instantiate(n.act.Template, n.tuple)
	if cmdErr != nil {
		cmd = n.act.Template // provenance keeps the raw template
	}

	switch {
	case n.aborted != "":
		// Steering abort: recorded, zero cost.
		st.Aborted++
		start := e.vt(n.readyAt)
		return e.app.InsertActivation(taskid, actid, d.wkfid, prov.StatusAborted,
			start, start, "-", 0, cmd+" # aborted: "+n.aborted)
	case n.err != nil && errors.Is(n.err, ErrLoop):
		// Looping state: charge the loop timeout, then abort.
		st.Aborted++
		a := sched.Activation{ID: taskid, Tag: n.act.Tag, Key: key,
			Attempts: []float64{sched.LoopTimeout}}
		p, err := e.opts.Scheduler.Place(n.readyAt, a, d.fleet)
		if err != nil {
			return err
		}
		d.observePlacement(n.actIdx, p)
		if err := e.app.BeginActivation(taskid, actid, d.wkfid, e.vt(p.Start), p.VMID, cmd); err != nil {
			return err
		}
		return e.app.CloseActivation(taskid, prov.StatusAborted, e.vt(p.End), int64(p.Failures))
	case n.err != nil:
		// Genuine failure: the tuple is dropped; provenance keeps the
		// error for the scientist's queries.
		st.Aborted++
		start := e.vt(n.readyAt)
		return e.app.InsertActivation(taskid, actid, d.wkfid, prov.StatusFailed,
			start, start, "-", 0, cmd+" # error: "+n.err.Error())
	}

	cost := e.opts.CostModel.Sample(n.act.Tag, key)
	attempts := []float64{cost}
	if !e.opts.DisableFailures {
		attempts = e.opts.CostModel.Attempts(n.act.Tag, key, cost)
	}
	a := sched.Activation{ID: taskid, Tag: n.act.Tag, Key: key, Attempts: attempts}
	if e.opts.ProvenanceEstimates {
		a.Estimate = e.estimateFor(n.act.Tag)
	}
	// Stage the output files now so I/O time lands in the virtual
	// duration.
	for _, f := range n.result.Files {
		lat, err := e.FS.Write(f.Dir+f.Name, f.Content)
		if err != nil {
			return fmt.Errorf("engine: staging %s: %w", f.Name, err)
		}
		a.IOTime += lat
	}
	p, err := e.opts.Scheduler.Place(n.readyAt, a, d.fleet)
	if err != nil {
		return err
	}
	d.observePlacement(n.actIdx, p)
	st.Failures += p.Failures
	if e.opts.ProvenanceEstimates {
		e.observeDuration(n.act.Tag, p.End-p.Start)
	}
	// PROV-Wf lifecycle: the row is born RUNNING and closed with the
	// terminal status (provpair enforces the pair).
	if err := e.app.BeginActivation(taskid, actid, d.wkfid, e.vt(p.Start), p.VMID, cmd); err != nil {
		return err
	}
	if err := e.app.CloseActivation(taskid, prov.StatusFinished, e.vt(p.End), int64(p.Failures)); err != nil {
		return err
	}
	for _, f := range n.result.Files {
		e.mu.Lock()
		e.nextFile++
		fileid := e.nextFile
		e.mu.Unlock()
		if err := e.app.InsertFile(fileid, taskid, actid, d.wkfid,
			f.Name, int64(len(f.Content)), f.Dir); err != nil {
			return err
		}
	}
	if err := e.recordExtract(taskid, d.wkfid, n.result.Extract); err != nil {
		return err
	}
	if n.fanErr != nil {
		// Contract violation: drop the tuple, keep going (children
		// were never spawned).
		st.Aborted++
		return nil
	}
	d.outTuples[n.actIdx] = append(d.outTuples[n.actIdx], n.result.Outputs...)
	for range n.result.Outputs {
		d.outEnds[n.actIdx] = append(d.outEnds[n.actIdx], p.End)
	}
	// Children become ready the instant this placement ends.
	seq := d.placeSeq
	for _, c := range n.children {
		c.parentSeq = seq
		c.readyAt = p.End
		d.register(c)
	}
	return nil
}

// observePlacement folds one placement into the per-activity span
// accounting and the workflow frontier.
func (d *dataflow) observePlacement(ai int, p sched.Placement) {
	st := &d.stats[ai]
	st.TotalSecs += p.End - p.Start
	if d.placed[ai] == 1 || p.Start < d.actStart[ai] {
		d.actStart[ai] = p.Start
	}
	if p.End > d.actEnd[ai] {
		d.actEnd[ai] = p.End
	}
	if p.End > d.frontier {
		d.frontier = p.End
	}
	d.placeSeq++
}

// maybeClose closes the activity if it is finished — every upstream
// closed (so no new activations can appear) and every known
// activation placed — then cascades: dependents lose an open source,
// Reduce dependents materialize their groups, and empty dependents
// close in turn.
func (d *dataflow) maybeClose(ai int) error {
	work := []int{ai}
	for len(work) > 0 {
		i := work[0]
		work = work[1:]
		if d.closed[i] || d.openSrc[i] > 0 || d.registered[i] > d.placed[i] {
			continue
		}
		d.closed[i] = true
		st := &d.stats[i]
		if st.Activations > 0 {
			// Under the dataflow runtime an activity has no exclusive
			// stage; StageSecs reports its busy span instead.
			st.StageSecs = d.actEnd[i] - d.actStart[i]
			if d.e.opts.OnStageComplete != nil {
				// The steering hook may query Engine.DB; make every
				// placement recorded so far visible first.
				if err := d.e.app.Flush(); err != nil {
					return err
				}
				d.e.opts.OnStageComplete(StageEvent{
					WorkflowID: d.wkfid,
					Activity:   d.order[i].Tag,
					Stats:      *st,
					Clock:      d.frontier,
					Engine:     d.e,
				})
			}
		}
		for _, di := range d.deps[i] {
			d.openSrc[di]--
			if d.openSrc[di] > 0 {
				continue
			}
			if d.order[di].Op == workflow.Reduce {
				if err := d.spawnReduce(di); err != nil {
					return err
				}
			} else if err := d.activityReady(di, d.registered[di]); err != nil {
				// The dependent's full load is now known (upstreams
				// closed): let the adaptive policy size the fleet.
				return err
			}
			work = append(work, di)
		}
	}
	return nil
}

// spawnReduce materializes a Reduce activity once all its upstreams
// have closed: inputs are grouped by GroupKey in first-appearance
// order (upstream outputs concatenated in Depends order, each in
// placement order), and each group becomes one activation ready at
// its own barrier — the latest placement end among the group's
// inputs.
func (d *dataflow) spawnReduce(ai int) error {
	act := d.order[ai]
	idx := make(map[string]int, len(d.order))
	for i, a := range d.order {
		idx[a.Tag] = i
	}
	groups := map[string][]workflow.Tuple{}
	barrier := map[string]float64{}
	var order []string
	total := 0
	for _, dep := range act.Depends {
		di := idx[dep]
		for j, t := range d.outTuples[di] {
			k := t[act.GroupKey]
			if _, seen := groups[k]; !seen {
				order = append(order, k)
			}
			groups[k] = append(groups[k], t)
			if d.outEnds[di][j] > barrier[k] {
				barrier[k] = d.outEnds[di][j]
			}
			total++
		}
	}
	if total == 0 {
		return nil
	}
	if err := d.activityReady(ai, len(order)); err != nil {
		return err
	}
	for gi, k := range order {
		n := &dfNode{
			act: act, actIdx: ai,
			tuple:     workflow.Tuple{act.GroupKey: k},
			group:     groups[k],
			parentSeq: -1, outIdx: gi,
			readyAt: barrier[k],
		}
		d.mu.Lock()
		d.queue = append(d.queue, n)
		d.workCond.Broadcast()
		d.mu.Unlock()
		d.register(n)
	}
	return nil
}

// activityReady fires when an activity's full activation count is
// known (sources at submit, Reduce at its upstream close): the
// adaptive-elasticity hook sizes the fleet for the incoming load.
// Map-like activities in mid-stream inherit the fleet as-is — their
// activations trickle in and are absorbed by the current allocation.
func (d *dataflow) activityReady(ai, count int) error {
	e := d.e
	if e.opts.Adaptive == nil || count == 0 {
		return nil
	}
	e.advanceSim(d.frontier)
	mean := e.opts.CostModel.Mean(d.order[ai].Tag)
	if mean == 0 {
		mean = 1
	}
	fleet, err := e.opts.Adaptive.Resize(e.Cluster, e.opts.Adaptive.DesiredCores(mean*float64(count)))
	if err != nil {
		return err
	}
	d.fleet = fleet
	return nil
}
