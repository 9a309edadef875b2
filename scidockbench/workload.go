package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/data"
)

// Workload names, as passed to --workload.
const (
	wlVina  = "vina-screen"
	wlAD4   = "ad4-screen"
	wlServe = "serve-mixed"
)

var workloadNames = []string{wlVina, wlAD4, wlServe}

// campaignInput is one distinct campaign of a workload: the dataset
// codes and knobs the program receives, nothing else.
type campaignInput struct {
	Mode      core.Mode
	Effort    string // "campaign" or "smoke"
	Receptors []string
	Ligands   []string
	Cores     int
	Seed      int64
	// Spec is what serve-mixed POSTs to /campaigns; nil for the
	// screens, whose codes a JSON Spec cannot name.
	Spec *campaign.Spec
}

// pairs is the campaign's receptor × ligand count.
func (c campaignInput) pairs() int { return len(c.Receptors) * len(c.Ligands) }

// config builds the core.Config the campaign runs with. Serve-mixed
// goes through Spec.Config, exactly as the HTTP handler does; the
// screens build the same mapping with seed-chosen codes.
func (c campaignInput) config() (core.Config, error) {
	if c.Spec != nil {
		return c.Spec.Config()
	}
	effort := core.CampaignEffort()
	if c.Effort == "smoke" {
		effort = core.SmokeEffort()
	}
	return core.Config{
		Mode:    c.Mode,
		Dataset: data.Dataset{Receptors: c.Receptors, Ligands: c.Ligands},
		Cores:   c.Cores,
		Effort:  effort,
		Seed:    c.Seed,
		HgGuard: true,
	}, nil
}

// submission is one open-loop arrival of serve-mixed.
type submission struct {
	Due    time.Duration // offset from the start of the window
	Tenant string
	Input  int // index into inputs.Campaigns
}

// inputs is everything a workload feeds the program, derived from the
// seed alone.
type inputs struct {
	Workload  string
	Seed      int64
	Campaigns []campaignInput
	// Schedule is serve-mixed's open-loop arrival stream, long enough
	// for any --seconds; the run uses the prefix due inside its window.
	Schedule []submission
}

// Shape of each workload. The screens cycle their campaign list in a
// closed loop; serve-mixed draws each arrival's spec from its list.
// Vina's search cost grows about 30× from the smallest to the largest
// ligand, so vina-screen's 13 × 3 ligand slots take every one of the 39
// well-behaved ligands each pass and the seed varies the receptors and
// the grouping.
const (
	vinaCampaigns, vinaReceptors, vinaLigands = 13, 2, 3
	ad4Campaigns, ad4Receptors, ad4Ligands    = 6, 6, 4
	// screenCores is the screens' virtual cluster: the paper's 2-core
	// baseline, so every core runs many activations and the TET sums
	// cost draws (and moves with scheduling) instead of being the
	// longest single chain.
	screenCores              = 2
	serveSpecs               = 6
	serveMinRec, serveMaxRec = 24, 32
	serveLigands             = 3
	serveCores               = 128
	// serveTickPairs paces the shared submission clock by the work it
	// brings: the gap after a tick is the tick's mean pair count times
	// serveTickPairs, scaled by a uniform draw from [0.8, 1.2], so the
	// offered load stays near 2·serveTickPairs⁻¹ pairs per second
	// whatever sizes the seed draws.
	serveTickPairs = time.Second / 60
	// serveHorizon bounds the generated schedule; any window up to
	// the 60 s a run may measure uses a prefix of it.
	serveHorizon = 120 * time.Second
)

var serveTenants = []string{"tenant-a", "tenant-b"}

// generate derives a workload's inputs from the seed. The seed chooses
// the dataset codes (screens) or sizes (serve-mixed), every campaign's
// Spec.Seed and the arrival schedule: the cost model keys its duration
// and failure draws on activity tag + pair, so a seed that only moved
// Spec.Seed would replay identical TETs and failure counts.
func generate(workload string, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed ^ int64(len(workload))<<40 ^ data.Seed(workload)))
	in := &inputs{Workload: workload, Seed: seed}
	switch workload {
	case wlVina:
		in.Campaigns = screenCampaigns(rng, core.ModeVina, data.LargeReceptor, vinaCampaigns, vinaReceptors, vinaLigands)
	case wlAD4:
		in.Campaigns = screenCampaigns(rng, core.ModeAD4, data.SmallReceptor, ad4Campaigns, ad4Receptors, ad4Ligands)
	case wlServe:
		for i := 0; i < serveSpecs; i++ {
			spec := &campaign.Spec{
				Mode:      "ad4",
				Effort:    "smoke",
				Cores:     serveCores,
				Receptors: serveMinRec + rng.Intn(serveMaxRec-serveMinRec+1),
				Ligands:   serveLigands,
				Seed:      1 + rng.Int63n(1<<30),
			}
			ds, err := data.Small(spec.Receptors, spec.Ligands)
			if err != nil {
				return nil, err
			}
			in.Campaigns = append(in.Campaigns, campaignInput{
				Mode: core.ModeAD4, Effort: spec.Effort, Cores: spec.Cores, Seed: spec.Seed,
				Receptors: ds.Receptors, Ligands: ds.Ligands, Spec: spec,
			})
		}
		// Both tenants submit on one clock: each tick brings one
		// campaign per tenant, so every campaign shares the CPU pool
		// with the other tenant's for most of its run.
		for due := time.Duration(0); due < serveHorizon; {
			pairs := 0
			for _, tenant := range serveTenants {
				k := rng.Intn(serveSpecs)
				in.Schedule = append(in.Schedule, submission{Due: due, Tenant: tenant, Input: k})
				pairs += in.Campaigns[k].pairs()
			}
			gap := float64(pairs) / float64(len(serveTenants)) * float64(serveTickPairs)
			due += time.Duration((0.8 + 0.4*rng.Float64()) * gap)
		}
		sort.SliceStable(in.Schedule, func(i, j int) bool { return in.Schedule[i].Due < in.Schedule[j].Due })
	default:
		return nil, fmt.Errorf("unknown workload %q (valid: %v)", workload, workloadNames)
	}
	return in, nil
}

// screenCampaigns draws n campaigns of nr receptors × nl ligands. The
// receptors come from one size class, Hg-free, and the ligands are the
// well-behaved ones, so every campaign docks every pair. Both are drawn
// one per stratum of their list sorted by size, then dealt to the
// campaigns largest first, each to the campaign with the least size so
// far: the seed changes every code while each campaign, and so each
// pass, keeps close to the same amount of work.
func screenCampaigns(rng *rand.Rand, mode core.Mode, class data.SizeClass, n, nr, nl int) []campaignInput {
	var recs []data.ReceptorInfo
	for _, code := range data.ReceptorCodes {
		if m := data.ReceptorMeta(code); m.Class == class && !m.ContainsHg {
			recs = append(recs, m)
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Residues < recs[j].Residues })
	var ligs []data.LigandInfo
	for _, code := range data.LigandCodes {
		if m := data.LigandMeta(code); !m.Problematic {
			ligs = append(ligs, m)
		}
	}
	sort.SliceStable(ligs, func(i, j int) bool { return ligs[i].HeavyAtoms < ligs[j].HeavyAtoms })

	// Docking cost grows faster than linearly with ligand size, so
	// ligands are weighed by heavy atoms squared.
	recGroups := deal(stratified(rng, len(recs), n*nr), n, func(i int) float64 { return float64(recs[i].Residues) })
	ligGroups := deal(stratified(rng, len(ligs), n*nl), n, func(i int) float64 {
		h := float64(ligs[i].HeavyAtoms)
		return h * h
	})
	out := make([]campaignInput, n)
	for i := range out {
		c := campaignInput{Mode: mode, Effort: "campaign", Cores: screenCores, Seed: 1 + rng.Int63n(1<<30)}
		for _, k := range recGroups[i] {
			c.Receptors = append(c.Receptors, recs[k].Code)
		}
		for _, k := range ligGroups[i] {
			c.Ligands = append(c.Ligands, ligs[k].Code)
		}
		out[i] = c
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// deal splits picks into n groups of equal count, heaviest first, each
// to the lightest group that still has room.
func deal(picks []int, n int, weight func(int) float64) [][]int {
	per := len(picks) / n
	sort.SliceStable(picks, func(i, j int) bool { return weight(picks[i]) > weight(picks[j]) })
	groups := make([][]int, n)
	load := make([]float64, n)
	for _, p := range picks {
		best := -1
		for g := range groups {
			if len(groups[g]) < per && (best < 0 || load[g] < load[best]) {
				best = g
			}
		}
		groups[best] = append(groups[best], p)
		load[best] += weight(p)
	}
	return groups
}

// stratified picks one index uniformly from each of k equal strata of
// [0, n), in stratum order.
func stratified(rng *rand.Rand, n, k int) []int {
	out := make([]int, k)
	for s := 0; s < k; s++ {
		lo, hi := s*n/k, (s+1)*n/k
		out[s] = lo + rng.Intn(hi-lo)
	}
	return out
}
