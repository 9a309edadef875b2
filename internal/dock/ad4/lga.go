package ad4

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/chem"
	"repro/internal/dock"
	"repro/internal/parallel"
	"repro/internal/prep"
)

// ProgramName is the banner written into DLG files, matching the
// version the paper deployed.
const ProgramName = "AutoDock 4.2.5.1"

// Engine runs Lamarckian-GA dockings with the parameters of a DPF.
type Engine struct {
	Params prep.DPF
	Box    dock.Box
	// Workers bounds the GA-run fan-out: 0 sizes it from the
	// process-wide CPU token budget (internal/parallel), 1 forces
	// sequential runs, n > 1 uses exactly n workers. Output is
	// byte-identical for every value — runs have independent seeds
	// and land in run order.
	Workers int
	// MaxBatch controls offspring evaluation batching: 0 (the
	// default) accumulates a whole generation's offspring and scores
	// them in one ScoreBatch call (flushing early when a Lamarckian
	// local search needs a score), n > 0 caps each batch at n poses,
	// and n < 0 forces the per-pose reference path. Output is
	// byte-identical for every value (pinned by
	// TestDockMaxBatchDeterministic).
	MaxBatch int
}

// Dock executes Params.Runs independent LGA runs and collects the
// per-run best poses, energies and RMSDs (vs the ligand's input
// frame, AutoDock's DLG convention). Runs are fanned over a bounded
// worker pool; each run draws from its own seeded RNG
// (RandomSeed + run·7919) and fills its own slot, so the merged
// result is identical for any worker count.
func (e *Engine) Dock(s *Scorer, lig *dock.Ligand) (*dock.Result, error) {
	if e.Params.Runs <= 0 || e.Params.PopSize <= 1 {
		return nil, fmt.Errorf("ad4: invalid GA parameters (runs=%d pop=%d)",
			e.Params.Runs, e.Params.PopSize)
	}
	res := &dock.Result{
		Program:  ProgramName,
		Receptor: s.Maps.Receptor,
		Ligand:   lig.Mol.Name,
		Seed:     e.Params.RandomSeed,
	}
	nRuns := e.Params.Runs
	runs := make([]dock.RunResult, nRuns)
	errs := make([]error, nRuns)

	oneRun := func(run int, ws *dock.Workspace) {
		r := rand.New(rand.NewSource(e.Params.RandomSeed + int64(run)*7919))
		pose, feb := e.runLGA(r, s, lig, ws)
		rmsd, err := chem.RMSD(lig.Coords(pose), lig.Reference())
		if err != nil {
			errs[run-1] = fmt.Errorf("ad4: rmsd: %w", err)
			return
		}
		runs[run-1] = dock.RunResult{Run: run, Pose: pose, FEB: feb, RMSD: rmsd}
	}

	workers := e.Workers
	release := func() {}
	if workers <= 0 {
		workers, release = parallel.Tokens().Grab(nRuns)
	}
	if workers > nRuns {
		workers = nRuns
	}
	if workers <= 1 {
		ws := dock.NewWorkspace(lig)
		for run := 1; run <= nRuns; run++ {
			oneRun(run, ws)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws := dock.NewWorkspace(lig)
				for {
					run := int(next.Add(1))
					if run > nRuns {
						return
					}
					oneRun(run, ws)
				}
			}()
		}
		wg.Wait()
	}
	release()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res.Runs = runs
	return res, nil
}

type individual struct {
	pose dock.Pose
	feb  float64
}

// runLGA is one Lamarckian GA run: generational GA with tournament
// selection, uniform pose crossover, Cauchy mutation and Solis-Wets
// local search whose result is written back into the genome
// (Lamarckian inheritance). The default path evaluates offspring
// through the SoA batch kernel; MaxBatch < 0 selects the per-pose
// reference loop the batched path is golden-tested against.
func (e *Engine) runLGA(r *rand.Rand, s *Scorer, lig *dock.Ligand, ws *dock.Workspace) (dock.Pose, float64) {
	if e.MaxBatch < 0 {
		return e.runLGASeq(r, s, lig, ws)
	}
	return e.runLGABatch(r, s, lig, ws)
}

// runLGABatch is runLGASeq restructured around the SoA batch kernel.
// The GA's evaluations consume no randomness, so deferring them
// cannot perturb the seeded stream: the initial population is drawn
// pose by pose and scored in one batch, and each generation's
// offspring are generated (tournament, crossover, mutation draws — all
// before any evaluation of that offspring in the reference order) and
// appended to the batch. The one draw the reference path takes after
// scoring an offspring — the Lamarckian local-search gate — is drawn
// eagerly at append time, which is stream-identical because the score
// between them draws nothing. The batch is flushed when full
// (MaxBatch poses; 0 = a whole generation) and on demand when a
// gated offspring needs its score for Solis-Wets, which then runs
// sequentially exactly as the reference path does. Champion updates
// are replayed in offspring order at generation end — nothing inside
// a generation reads the champion, so the running minimum is the
// same one the reference loop maintains online — making the whole
// trajectory, and hence the returned pose, bit-identical for every
// MaxBatch value.
func (e *Engine) runLGABatch(r *rand.Rand, s *Scorer, lig *dock.Ligand, ws *dock.Workspace) (dock.Pose, float64) {
	nt := lig.NumTorsions()
	pop := make([]individual, e.Params.PopSize)
	next := make([]individual, e.Params.PopSize)
	for i := range pop {
		pop[i].pose.Torsions = make([]float64, 0, nt)
		next[i].pose.Torsions = make([]float64, 0, nt)
	}
	maxB := e.MaxBatch
	if maxB <= 0 || maxB > len(pop) {
		maxB = len(pop)
	}
	b := ws.Batch()
	febs := ws.Floats(maxB)
	evals := 0

	for i := range pop {
		dock.RandomPoseInto(r, &pop[i].pose, e.Box, nt)
	}
	for base := 0; base < len(pop); base += maxB {
		end := base + maxB
		if end > len(pop) {
			end = len(pop)
		}
		b.Reset()
		for i := base; i < end; i++ {
			b.Append(pop[i].pose)
		}
		s.ScoreBatch(b, febs[:end-base])
		evals += end - base
		for i := base; i < end; i++ {
			pop[i].feb = febs[i-base]
		}
	}
	best := individual{pose: dock.Pose{Torsions: make([]float64, 0, nt)}, feb: math.Inf(1)}
	for i := range pop {
		if pop[i].feb < best.feb {
			best.pose.Set(pop[i].pose)
			best.feb = pop[i].feb
		}
	}

	pending := make([]int, 0, len(pop))
	for gen := 0; gen < e.Params.Gens && evals < e.Params.Evals; gen++ {
		next[0].pose.Set(best.pose)
		next[0].feb = best.feb
		b.Reset()
		pending = pending[:0]
		flush := func() {
			if b.Len() == 0 {
				return
			}
			s.ScoreBatch(b, febs[:b.Len()])
			evals += b.Len()
			for j, idx := range pending {
				next[idx].feb = febs[j]
			}
			b.Reset()
			pending = pending[:0]
		}
		for i := 1; i < len(pop); i++ {
			a := tournament(r, pop)
			bi := tournament(r, pop)
			child := &next[i].pose
			if r.Float64() < e.Params.CrossRate {
				crossoverInto(r, child, pop[a].pose, pop[bi].pose)
			} else {
				child.Set(pop[a].pose)
			}
			mutateInPlace(r, child, e.Params.MutRate, e.Box)
			// The reference path's next draw is the Lamarckian gate,
			// taken right after the (draw-free) evaluation.
			ls := r.Float64() < e.Params.LocalRate
			b.Append(*child)
			pending = append(pending, i)
			if ls {
				flush()
				next[i].feb = e.solisWetsWindowed(r, s, ws, child, next[i].feb, &evals)
			} else if b.Len() >= maxB {
				flush()
			}
		}
		flush()
		for i := 1; i < len(pop); i++ {
			if next[i].feb < best.feb {
				best.pose.Set(next[i].pose)
				best.feb = next[i].feb
			}
		}
		pop, next = next, pop
	}
	champ := ws.Get()
	defer ws.Put(champ)
	champ.Set(best.pose)
	feb := e.solisWetsWindowed(r, s, ws, champ, best.feb, new(int))
	if feb < best.feb {
		return champ.Clone(), feb
	}
	return best.pose, best.feb
}

// runLGASeq is the per-pose reference run the batched path must match
// byte-for-byte (Engine.MaxBatch < 0 selects it).
func (e *Engine) runLGASeq(r *rand.Rand, s *Scorer, lig *dock.Ligand, ws *dock.Workspace) (dock.Pose, float64) {
	nt := lig.NumTorsions()
	pop := make([]individual, e.Params.PopSize)
	next := make([]individual, e.Params.PopSize)
	for i := range pop {
		pop[i].pose.Torsions = make([]float64, 0, nt)
		next[i].pose.Torsions = make([]float64, 0, nt)
	}
	evals := 0
	score := func(p dock.Pose) float64 {
		evals++
		return s.Score(ws.Coords(p))
	}
	for i := range pop {
		dock.RandomPoseInto(r, &pop[i].pose, e.Box, nt)
		pop[i].feb = score(pop[i].pose)
	}
	best := individual{pose: dock.Pose{Torsions: make([]float64, 0, nt)}, feb: math.Inf(1)}
	for i := range pop {
		if pop[i].feb < best.feb {
			best.pose.Set(pop[i].pose)
			best.feb = pop[i].feb
		}
	}

	for gen := 0; gen < e.Params.Gens && evals < e.Params.Evals; gen++ {
		// Elitism: carry the best genome forward unchanged.
		next[0].pose.Set(best.pose)
		next[0].feb = best.feb
		for i := 1; i < len(pop); i++ {
			a := tournament(r, pop)
			b := tournament(r, pop)
			child := &next[i].pose
			if r.Float64() < e.Params.CrossRate {
				crossoverInto(r, child, pop[a].pose, pop[b].pose)
			} else {
				child.Set(pop[a].pose)
			}
			mutateInPlace(r, child, e.Params.MutRate, e.Box)
			feb := score(*child)
			// Lamarckian local search on a fraction of offspring.
			if r.Float64() < e.Params.LocalRate {
				feb = e.solisWets(r, s, ws, child, feb, &evals)
			}
			next[i].feb = feb
			if feb < best.feb {
				best.pose.Set(*child)
				best.feb = feb
			}
		}
		pop, next = next, pop
	}
	// Final local refinement of the champion.
	champ := ws.Get()
	defer ws.Put(champ)
	champ.Set(best.pose)
	feb := e.solisWets(r, s, ws, champ, best.feb, new(int))
	if feb < best.feb {
		return champ.Clone(), feb
	}
	return best.pose, best.feb
}

func tournament(r *rand.Rand, pop []individual) int {
	a := r.Intn(len(pop))
	b := r.Intn(len(pop))
	if pop[a].feb <= pop[b].feb {
		return a
	}
	return b
}

// crossoverInto mixes two parent poses gene-wise into dst: translation
// lerp, orientation slerp and per-torsion pick. The RNG draw order
// (mix fraction first, then one draw per torsion) matches the original
// allocating crossover, so seeded trajectories are unchanged.
func crossoverInto(r *rand.Rand, dst *dock.Pose, a, b dock.Pose) {
	t := r.Float64()
	dst.Set(a)
	dst.Translation = a.Translation.Lerp(b.Translation, t)
	dst.Orientation = a.Orientation.Slerp(b.Orientation, t)
	for i := range dst.Torsions {
		if r.Float64() < 0.5 {
			dst.Torsions[i] = b.Torsions[i]
		}
	}
}

// mutateInPlace applies Cauchy-distributed gene perturbations at the
// given per-gene rate, clamping the translation back into the box.
func mutateInPlace(r *rand.Rand, p *dock.Pose, rate float64, box dock.Box) {
	cauchy := func(scale float64) float64 {
		return scale * math.Tan(math.Pi*(r.Float64()-0.5))
	}
	if r.Float64() < rate*10 { // translation gene
		p.Translation = p.Translation.Add(chem.V(cauchy(1.0), cauchy(1.0), cauchy(1.0)))
	}
	if r.Float64() < rate*10 { // orientation gene
		axis := chem.V(r.NormFloat64(), r.NormFloat64(), r.NormFloat64())
		p.Orientation = chem.AxisAngleQuat(axis, cauchy(0.3)).Mul(p.Orientation).Normalize()
	}
	for i := range p.Torsions {
		if r.Float64() < rate*10 {
			p.Torsions[i] = wrap(p.Torsions[i] + cauchy(0.3))
		}
	}
	dock.ClampToBox(p, box)
}

func wrap(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a < -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// solisWets is AutoDock's local search: adaptive random-direction
// descent. Successful steps expand the step size and leave a bias;
// failures try the opposite direction, then shrink. The pose is
// refined in place through the workspace — zero allocations per
// candidate — and the improved energy returned.
func (e *Engine) solisWets(r *rand.Rand, s *Scorer, ws *dock.Workspace, p *dock.Pose, feb float64, evals *int) float64 {
	rho := 1.0
	const rhoMin = 0.01
	succ, fail := 0, 0
	cur, cand := ws.Get(), ws.Get()
	defer ws.Put(cur)
	defer ws.Put(cand)
	cur.Set(*p)
	curFeb := feb
	for it := 0; it < e.Params.LocalIts && rho > rhoMin; it++ {
		dock.PerturbInto(r, cand, *cur, rho*0.5, rho*0.15)
		dock.ClampToBox(cand, e.Box)
		*evals++
		candFeb := s.Score(ws.Coords(*cand))
		if candFeb < curFeb {
			cur, cand = cand, cur
			curFeb = candFeb
			succ++
			fail = 0
		} else {
			fail++
			succ = 0
		}
		if succ >= 4 {
			rho *= 2
			succ = 0
		}
		if fail >= 4 {
			rho *= 0.5
			fail = 0
		}
	}
	p.Set(*cur)
	return curFeb
}

// solisWetsWindowed is solisWets restructured around speculative
// incumbent-anchored windows, byte-identical to it by construction
// (the batched LGA uses it; the reference path keeps solisWets, and
// TestDockMaxBatchDeterministic pins the two against each other).
//
// The restructuring rests on two facts about the sequential loop.
// First, every iteration consumes exactly PerturbDrawCount draws
// before anything else reads the RNG, so the draws for a run of
// future iterations can be taken up front without moving any draw
// relative to the stream. Second, rho and the incumbent can only
// change at an accept (succ bookkeeping, swap) or when fail reaches
// 4 (halving) — so across a window of w = min(4−fail, remaining
// iterations) candidates, as long as every one of them is rejected,
// all w are perturbations of the SAME incumbent at the SAME rho, and
// the halving (and any rho ≤ rhoMin exit) cannot fire before the
// window's last element. Rejection is the overwhelmingly common case
// in Solis-Wets, so the window usually speculates correctly.
//
// Each window therefore: draws w·PerturbDrawCount raws, materializes
// the w candidates from the incumbent, sets the batch window at the
// incumbent with a displacement bound computed from the ACTUAL draws
// (translation norm, rotation angle, per-torsion arcs — so the bound
// is tight for this window, not a worst case), and scores all w in
// one batched call through the shared window gather/live-pair
// machinery. The results are then replayed in iteration order with
// the exact sequential bookkeeping. Until the first accept the
// speculation is valid: the batched score of candidate j is
// bit-identical to what the sequential loop would have computed
// (kernel pose-purity), so accepts and evals tick identically. At the
// first accept the remaining candidates are stale — built from the
// wrong incumbent — so the replay falls back to rebuilding each
// remaining candidate from its pre-drawn raws against the CURRENT
// incumbent and rho, which is exactly the sequential iteration with
// its draws taken earlier. Within a window the loop guard cannot exit
// early (rho halves only at the window's last element and only
// doubles after accepts), so the draw count per window matches the
// sequential path exactly.
func (e *Engine) solisWetsWindowed(r *rand.Rand, s *Scorer, ws *dock.Workspace, p *dock.Pose, feb float64, evals *int) float64 {
	rho := 1.0
	const rhoMin = 0.01
	succ, fail := 0, 0
	cur, cand := ws.Get(), ws.Get()
	defer ws.Put(cur)
	defer ws.Put(cand)
	cur.Set(*p)
	curFeb := feb
	nt := len(p.Torsions)
	nd := dock.PerturbDrawCount(nt)
	arcMax, arcMean := s.Lig.ArcRadii()
	b := ws.Batch()
	defer b.ClearWindow()
	var febs [4]float64
	for it := 0; it < e.Params.LocalIts && rho > rhoMin; {
		w := 4 - fail
		if rem := e.Params.LocalIts - it; w > rem {
			w = rem
		}
		raws := ws.Floats(w * nd)
		for j := 0; j < w; j++ {
			dock.PerturbDraws(r, raws[j*nd:(j+1)*nd])
		}
		dt, da := rho*0.5, rho*0.15
		radius := b.SetWindow(*cur)
		bound := 0.0
		for j := 0; j < w; j++ {
			raw := raws[j*nd : (j+1)*nd]
			dT := dt * math.Sqrt(raw[0]*raw[0]+raw[1]*raw[1]+raw[2]*raw[2])
			d := chem.DisplacementBound(dT, math.Abs(raw[6])*da, 0, radius, nil, nil)
			for k := 0; k < nt; k++ {
				d += math.Abs(raw[7+k]) * da * (arcMax[k] + arcMean[k])
			}
			if d > bound {
				bound = d
			}
		}
		b.SetWindowBound(bound)
		b.Reset()
		for j := 0; j < w; j++ {
			dock.PerturbApplyRaw(raws[j*nd:(j+1)*nd], cand, *cur, dt, da)
			// ClampToBox only pulls coordinates toward the in-box
			// incumbent, so it cannot push a pose past the bound.
			dock.ClampToBox(cand, e.Box)
			b.Append(*cand)
		}
		s.ScoreBatch(b, febs[:w])
		b.Reset()
		stale := false
		for j := 0; j < w; j++ {
			raw := raws[j*nd : (j+1)*nd]
			var candFeb float64
			if !stale {
				candFeb = febs[j]
				if candFeb < curFeb {
					dock.PerturbApplyRaw(raw, cand, *cur, dt, da)
					dock.ClampToBox(cand, e.Box)
				}
			} else {
				dock.PerturbApplyRaw(raw, cand, *cur, rho*0.5, rho*0.15)
				dock.ClampToBox(cand, e.Box)
				candFeb = s.Score(ws.Coords(*cand))
			}
			*evals++
			if candFeb < curFeb {
				cur, cand = cand, cur
				curFeb = candFeb
				succ++
				fail = 0
				stale = true
			} else {
				fail++
				succ = 0
			}
			if succ >= 4 {
				rho *= 2
				succ = 0
			}
			if fail >= 4 {
				rho *= 0.5
				fail = 0
			}
			it++
		}
	}
	p.Set(*cur)
	return curFeb
}
