package ad4

import (
	"sync"
	"testing"

	"repro/internal/dock"
)

var batchSizes = []int{0, 1, 7, 64}

// TestScoreBatchMatchesScore pins the 0-ULP contract: for every batch
// size, ScoreBatch of slot p equals Score of the same pose's
// coordinates exactly — not approximately — because the batched kernel
// accumulates every term in the sequential order.
func TestScoreBatchMatchesScore(t *testing.T) {
	maps, lig, _ := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(maps, lig)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range batchSizes {
		poses := randomPoses(lig, n, int64(41+n))
		b := dock.NewBatch(lig, n)
		for _, p := range poses {
			b.Append(p)
		}
		out := make([]float64, n)
		s.ScoreBatch(b, out)
		for p, pose := range poses {
			want := s.Score(lig.Coords(pose))
			if out[p] != want {
				t.Errorf("n=%d pose %d: ScoreBatch %v != Score %v", n, p, out[p], want)
			}
		}
	}
}

// TestScoreBatchZeroAllocs pins the steady-state allocation contract:
// once the batch is warm, a Reset/Append/ScoreBatch cycle allocates
// nothing.
func TestScoreBatchZeroAllocs(t *testing.T) {
	maps, lig, _ := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(maps, lig)
	if err != nil {
		t.Fatal(err)
	}
	poses := randomPoses(lig, 16, 23)
	b := dock.NewBatch(lig, len(poses))
	out := make([]float64, len(poses))
	cycle := func() {
		b.Reset()
		for _, p := range poses {
			b.Append(p)
		}
		s.ScoreBatch(b, out)
	}
	cycle() // warm the scratch buffers
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("ScoreBatch cycle allocates %v times per run, want 0", allocs)
	}
}

// TestScoreBatchConcurrent drives goroutines with private batches
// through one shared Scorer (run under -race by scripts/check.sh):
// the scorer is read-only during ScoreBatch, so concurrent batch
// callers must not trip the race detector.
func TestScoreBatchConcurrent(t *testing.T) {
	maps, lig, _ := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(maps, lig)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			poses := randomPoses(lig, 8, int64(100+g))
			b := dock.NewBatch(lig, len(poses))
			out := make([]float64, len(poses))
			for round := 0; round < 5; round++ {
				b.Reset()
				for _, p := range poses {
					b.Append(p)
				}
				s.ScoreBatch(b, out)
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkScoreBatch16(b *testing.B)  { benchScoreBatch(b, 16) }
func BenchmarkScoreBatch50(b *testing.B)  { benchScoreBatch(b, 50) }
func BenchmarkScoreBatch150(b *testing.B) { benchScoreBatch(b, 150) }

func benchScoreBatch(b *testing.B, size int) {
	maps, lig, _ := setupPair(b, "2HHN", "0E6")
	s, err := NewScorer(maps, lig)
	if err != nil {
		b.Fatal(err)
	}
	poses := randomPoses(lig, size, 5)
	batch := dock.NewBatch(lig, size)
	out := make([]float64, size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Reset()
		for _, p := range poses {
			batch.Append(p)
		}
		s.ScoreBatch(batch, out)
	}
}
