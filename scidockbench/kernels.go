package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/dock"
	"repro/internal/dock/ad4"
	"repro/internal/dock/vina"
	"repro/internal/grid"
	"repro/internal/prep"
)

// kernelPair is one pair of the workload set up for direct calls into
// both docking engines, with the grid and search effort its campaign
// uses.
type kernelPair struct {
	name    string
	lig     *dock.Ligand
	box     dock.Box
	vina    *vina.Scorer
	ad4     *ad4.Scorer
	vinaEng *vina.Engine
	ad4Eng  *ad4.Engine
}

// newKernelPair builds the engines for the first pair of the first
// campaign whose receptor preparation accepts.
func newKernelPair(in *inputs, p *prepared) (*kernelPair, error) {
	c := in.Campaigns[0]
	rec := ""
	for _, r := range c.Receptors {
		if p.recs[r] != nil {
			rec = r
			break
		}
	}
	if rec == "" {
		return nil, fmt.Errorf("no preparable receptor in campaign %v", c.Receptors)
	}
	lig := c.Ligands[0]
	cfg, err := c.config()
	if err != nil {
		return nil, err
	}
	effort := cfg.Effort
	prec, pl := p.recs[rec], p.ligs[lig]
	dlig, err := dock.NewLigand(pl.Mol, pl.Tree)
	if err != nil {
		return nil, err
	}
	lo, hi := chem.BoundingBox(prec.Positions())
	n := effort.GridNPts
	spec := grid.Spec{Center: lo.Lerp(hi, 0.5), NPts: [3]int{n, n, n}, Spacing: effort.GridSpacing}
	edge := float64(n-1) * effort.GridSpacing
	box := dock.Box{Center: spec.Center, Size: chem.V(edge, edge, edge)}
	seed := data.Seed(lig+"_"+rec) ^ cfg.Seed

	vs, err := vina.NewScorer(prec, dlig)
	if err != nil {
		return nil, err
	}
	maps, err := grid.Generate(prec, spec, pl.Mol.AtomTypes())
	if err != nil {
		return nil, err
	}
	as, err := ad4.NewScorer(maps, dlig)
	if err != nil {
		return nil, err
	}
	params := prep.DefaultDPF(lig, rec, seed)
	params.Runs, params.PopSize = effort.AD4Runs, effort.AD4PopSize
	params.Gens, params.Evals = effort.AD4Gens, effort.AD4Evals
	return &kernelPair{
		name: lig + "_" + rec,
		lig:  dlig,
		box:  box,
		vina: vs,
		ad4:  as,
		vinaEng: &vina.Engine{StepsPerRestart: effort.VinaSteps, Config: prep.VinaConfig{
			Receptor: rec + ".pdbqt", Ligand: lig + ".pdbqt", Center: box.Center, Size: box.Size,
			Exhaustiveness: effort.VinaExhaustiveness, NumModes: effort.VinaModes, Seed: seed}},
		ad4Eng: &ad4.Engine{Params: params, Box: box},
	}, nil
}

// kernelRounds and kernelPoses size the direct-call measurements:
// medians over rounds, each scoring the same fixed pose sample.
const (
	kernelRounds = 5
	kernelPoses  = 640
	kernelBatch  = 64
)

// measureKernels times Dock, per-pose Score and ScoreBatch of both
// engines on the pair and reports them through add.
func (k *kernelPair) measureKernels(add func(name string, v float64, unit string)) error {
	r := rand.New(rand.NewSource(1))
	poses := make([]dock.Pose, kernelPoses)
	for i := range poses {
		poses[i] = dock.RandomPose(r, k.box, k.lig.NumTorsions())
	}
	coords := make([][]chem.Vec3, len(poses))
	for i, p := range poses {
		coords[i] = k.lig.Coords(p)
	}
	b := dock.NewBatch(k.lig, kernelBatch)
	out := make([]float64, kernelBatch)

	type engine struct {
		name  string
		dock  func() error
		score func([]chem.Vec3) float64
		batch func(*dock.Batch, []float64)
		ws    int
	}
	engines := []engine{
		{"vina", func() error { _, err := k.vinaEng.Dock(k.vina, k.lig); return err },
			k.vina.Score, k.vina.ScoreBatch, k.vina.ExactWorkingSetBytes()},
		{"ad4", func() error { _, err := k.ad4Eng.Dock(k.ad4, k.lig); return err },
			k.ad4.Score, k.ad4.ScoreBatch, k.ad4.ExactWorkingSetBytes()},
	}
	for _, e := range engines {
		var dockMs, scoreNs, batchNs []float64
		for round := 0; round < kernelRounds; round++ {
			t := time.Now()
			if err := e.dock(); err != nil {
				return fmt.Errorf("%s dock %s: %w", e.name, k.name, err)
			}
			dockMs = append(dockMs, ms(time.Since(t)))

			t = time.Now()
			var sink float64
			for _, c := range coords {
				sink += e.score(c)
			}
			scoreNs = append(scoreNs, float64(time.Since(t).Nanoseconds())/float64(len(coords)))

			t = time.Now()
			for i := 0; i < len(poses); i += kernelBatch {
				b.Reset()
				for _, p := range poses[i:min(i+kernelBatch, len(poses))] {
					b.Append(p)
				}
				e.batch(b, out[:b.Len()])
				sink += out[0]
			}
			batchNs = append(batchNs, float64(time.Since(t).Nanoseconds())/float64(len(poses)))
			if math.IsNaN(sink) {
				return fmt.Errorf("%s kernels returned NaN on %s", e.name, k.name)
			}
		}
		add(e.name+".dock_ms", median(dockMs), "ms")
		add(e.name+".score_ns_per_pose", median(scoreNs), "ns")
		add(e.name+".batch_ns_per_pose", median(batchNs), "ns")
		add(e.name+".exact_ws_bytes", float64(e.ws), "bytes")
	}
	return nil
}

// oraclePoses is how many random poses the scoring check covers.
const oraclePoses = 64

// checkScoring holds both engines to the scoring contracts the
// repository pins: the table kernels agree with the closed-form
// analytic references within 0.05 + 1e-3·|E| kcal/mol, and ScoreBatch
// is bit-identical to per-pose Score. It catches a kernel change that
// alters results in the sequential reference as well, which the digest
// comparison cannot.
func (k *kernelPair) checkScoring() error {
	r := rand.New(rand.NewSource(2))
	b := dock.NewBatch(k.lig, oraclePoses)
	out := make([]float64, oraclePoses)
	var coords [][]chem.Vec3
	for i := 0; i < oraclePoses; i++ {
		p := dock.RandomPose(r, k.box, k.lig.NumTorsions())
		b.Append(p)
		coords = append(coords, k.lig.Coords(p))
	}
	type scorer struct {
		name     string
		score    func([]chem.Vec3) float64
		analytic func([]chem.Vec3) float64
		batch    func(*dock.Batch, []float64)
	}
	for _, s := range []scorer{
		{"vina", k.vina.Score, k.vina.ScoreAnalytic, k.vina.ScoreBatch},
		{"ad4", k.ad4.Score, k.ad4.ScoreAnalytic, k.ad4.ScoreBatch},
	} {
		s.batch(b, out)
		for i, c := range coords {
			got, want := s.score(c), s.analytic(c)
			if d := math.Abs(got - want); !(d <= 0.05+1e-3*math.Abs(want)) {
				return fmt.Errorf("%s on %s pose %d: table score %v, analytic %v", s.name, k.name, i, got, want)
			}
			if math.Float64bits(out[i]) != math.Float64bits(got) {
				return fmt.Errorf("%s on %s pose %d: ScoreBatch %v, Score %v", s.name, k.name, i, out[i], got)
			}
		}
	}
	return nil
}
