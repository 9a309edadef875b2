package vina

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/dock"
)

// windowPoses builds a search-shaped window population: poses[0] is a
// random incumbent and the rest are Solis-Wets-scale perturbations of
// it. The returned bound is the actual maximum per-atom displacement
// from the incumbent's coordinates (plus an epsilon), so every pose is
// admissible by construction.
func windowPoses(lig *dock.Ligand, n int, seed int64) ([]dock.Pose, float64) {
	r := rand.New(rand.NewSource(seed))
	poses := make([]dock.Pose, n)
	poses[0] = dock.Pose{Torsions: make([]float64, lig.NumTorsions())}
	dock.RandomPoseInto(r, &poses[0], dock.Box{Size: chem.V(10, 10, 10)}, lig.NumTorsions())
	for i := 1; i < n; i++ {
		poses[i] = dock.Pose{Torsions: make([]float64, lig.NumTorsions())}
		const rho = 0.15
		dock.PerturbInto(r, &poses[i], poses[0], rho*0.5, rho*0.15)
	}
	anchor := lig.Coords(poses[0])
	d2max := 0.0
	for i := 1; i < n; i++ {
		c := lig.Coords(poses[i])
		for k := range c {
			if d2 := c[k].Dist2(anchor[k]); d2 > d2max {
				d2max = d2
			}
		}
	}
	return poses, math.Sqrt(d2max) + 1e-9
}

// windowPairs sweeps the reference pair and the L2-overflow pair so the
// shared-gather contract is pinned on both workload shapes.
var windowPairs = [][2]string{
	{"2HHN", "0E6"},
	{data.LargeReceptorCode, data.LargeLigandCode},
}

// TestWindowScoreBatchMatchesPerPose pins the tentpole 0-ULP contract:
// with an active window whose bound holds, the shared-gather ScoreBatch
// equals the per-pose exact Score bit for bit across batch sizes — on
// the reference pair and on the large pair.
func TestWindowScoreBatchMatchesPerPose(t *testing.T) {
	for _, pair := range windowPairs {
		rec, lig := setupPair(t, pair[0], pair[1])
		s, err := NewScorer(rec, lig)
		if err != nil {
			t.Fatal(err)
		}
		ws := dock.NewWorkspace(lig)
		for _, bs := range []int{1, 7, 64} {
			poses, bound := windowPoses(lig, bs, int64(300+bs))
			b := ws.Batch()
			b.SetWindow(poses[0])
			b.SetWindowBound(bound)
			b.Reset()
			for _, p := range poses {
				b.Append(p)
			}
			for k, ok := range b.WindowValid() {
				if !ok {
					t.Fatalf("%s batch %d: pose %d rejected despite actual-displacement bound", pair[1], bs, k)
				}
			}
			out := ws.Floats(bs)
			s.ScoreBatch(b, out)
			for k, p := range poses {
				if want := s.Score(ws.Coords(p)); out[k] != want {
					t.Fatalf("%s/%s batch %d slot %d: windowed ScoreBatch %.17g != Score %.17g",
						pair[0], pair[1], bs, k, out[k], want)
				}
			}
			b.ClearWindow()
		}
	}
}

// TestWindowBoundViolationFallsBack plants poses that escape a
// deliberately understated bound and pins the fallback contract: the
// escapes are flagged invalid, routed through the per-pose exact
// gather, and the whole batch — valid and invalid slots alike — stays
// byte-identical to the per-pose path.
func TestWindowBoundViolationFallsBack(t *testing.T) {
	rec, lig := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(rec, lig)
	if err != nil {
		t.Fatal(err)
	}
	ws := dock.NewWorkspace(lig)
	poses, bound := windowPoses(lig, 12, 17)
	// Two escapes: a gross translation and a marginal one just past the
	// understated bound.
	esc := poses[0].Clone()
	esc.Translation = esc.Translation.Add(chem.V(5, 0, 0))
	poses = append(poses, esc)
	near := poses[0].Clone()
	near.Translation = near.Translation.Add(chem.V(bound*1.5, 0, 0))
	poses = append(poses, near)
	b := ws.Batch()
	b.SetWindow(poses[0])
	b.SetWindowBound(bound)
	b.Reset()
	for _, p := range poses {
		b.Append(p)
	}
	valid := b.WindowValid()
	if valid[len(poses)-1] || valid[len(poses)-2] {
		t.Fatalf("escaped poses admitted: valid = %v", valid)
	}
	nInvalid := 0
	for _, ok := range valid {
		if !ok {
			nInvalid++
		}
	}
	if nInvalid != 2 {
		t.Fatalf("expected exactly the 2 planted escapes to be invalid, got %d (%v)", nInvalid, valid)
	}
	out := ws.Floats(len(poses))
	s.ScoreBatch(b, out)
	for k, p := range poses {
		if want := s.Score(ws.Coords(p)); out[k] != want {
			t.Fatalf("slot %d (valid=%v): fallback ScoreBatch %.17g != Score %.17g",
				k, valid[k], out[k], want)
		}
	}
}

// benchWindowBatch measures the full windowed loop (window setup,
// refill, kernel) on the named pair — the shape the MaxBatch screens
// run in steady state.
func benchWindowBatch(b *testing.B, recCode, ligCode string) {
	rec, lig := setupPair(b, recCode, ligCode)
	s, err := NewScorer(rec, lig)
	if err != nil {
		b.Fatal(err)
	}
	ws := dock.NewWorkspace(lig)
	const batch = 50
	poses, bound := windowPoses(lig, batch, 7)
	bt := ws.Batch()
	out := ws.Floats(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.SetWindow(poses[0])
		bt.SetWindowBound(bound)
		bt.Reset()
		for _, p := range poses {
			bt.Append(p)
		}
		s.ScoreBatch(bt, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/pose")
	bt.ClearWindow()
}

func BenchmarkWindowScoreBatchLarge50(b *testing.B) {
	benchWindowBatch(b, data.LargeReceptorCode, data.LargeLigandCode)
}

// TestWindowScoreBatchZeroAllocs pins the steady-state allocation
// contract of the full windowed loop: set the window, refill, score —
// zero heap allocations once the caches hit their high-water mark.
func TestWindowScoreBatchZeroAllocs(t *testing.T) {
	rec, lig := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(rec, lig)
	if err != nil {
		t.Fatal(err)
	}
	ws := dock.NewWorkspace(lig)
	poses, bound := windowPoses(lig, 50, 7)
	b := ws.Batch()
	out := ws.Floats(len(poses))
	run := func() {
		b.SetWindow(poses[0])
		b.SetWindowBound(bound)
		b.Reset()
		for _, p := range poses {
			b.Append(p)
		}
		s.ScoreBatch(b, out)
	}
	run() // warm caches to the high-water mark
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("steady-state windowed loop allocates %.1f/op, want 0", allocs)
	}
	b.ClearWindow()
}
