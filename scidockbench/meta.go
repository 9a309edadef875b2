package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/dock/tables"
	"repro/internal/prep"
)

// prepared holds the workload's receptors and ligands after SciDock's
// preparation steps, keyed by code. Receptors preparation refuses (Hg)
// are absent.
type prepared struct {
	recs map[string]*chem.Molecule
	ligs map[string]*prep.PreparedLigand
	// ligKey is each ligand's canonical atom-type list, the part of
	// AutoGrid's map-set key a ligand contributes.
	ligKey map[string]string
}

func prepareInputs(in *inputs) (*prepared, error) {
	p := &prepared{recs: map[string]*chem.Molecule{}, ligs: map[string]*prep.PreparedLigand{}, ligKey: map[string]string{}}
	for _, c := range in.Campaigns {
		for _, code := range c.Receptors {
			if _, ok := p.recs[code]; ok || data.ReceptorMeta(code).ContainsHg {
				continue
			}
			raw, _ := data.GenerateReceptor(code)
			m, err := prep.PrepareReceptor(raw)
			if err != nil {
				return nil, fmt.Errorf("preparing receptor %s: %w", code, err)
			}
			p.recs[code] = m
		}
		for _, code := range c.Ligands {
			if _, ok := p.ligs[code]; ok {
				continue
			}
			raw, _ := data.GenerateLigand(code)
			mol2, err := prep.ConvertSDFToMol2(raw)
			if err != nil {
				return nil, fmt.Errorf("converting ligand %s: %w", code, err)
			}
			pl, err := prep.PrepareLigand(mol2)
			if err != nil {
				return nil, fmt.Errorf("preparing ligand %s: %w", code, err)
			}
			p.ligs[code] = pl
			var ts []string
			for _, t := range pl.Mol.AtomTypes() {
				ts = append(ts, string(t))
			}
			p.ligKey[code] = strings.Join(ts, ",")
		}
	}
	return p, nil
}

// warmTables fills the process-wide radial-table cache for every pair
// of atom types the workload's molecules carry, as a resident service
// would before taking load.
func (p *prepared) warmTables() {
	seen := map[chem.AtomType]bool{}
	var types []chem.AtomType
	add := func(m *chem.Molecule) {
		for _, t := range m.AtomTypes() {
			if !seen[t] {
				seen[t] = true
				types = append(types, t)
			}
		}
	}
	for _, m := range p.recs {
		add(m)
	}
	for _, l := range p.ligs {
		add(l.Mol)
	}
	for _, a := range types {
		for _, b := range types {
			tables.Vina(a, b)
			tables.AD4Pair(a, b)
			tables.AD4Smoothed(a, b)
		}
	}
	tables.Electrostatic()
	tables.Desolvation()
}

// hostMeta identifies the machine and the code a result came from.
type hostMeta struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	// SourceSHA256 hashes the Go sources and go.mod files of the
	// checkout; it identifies the code when no git metadata exists.
	SourceSHA256 string `json:"source_sha256"`
}

func readHost(root string) hostMeta {
	return hostMeta{
		CPUModel:     cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GitRev:       gitRev(root),
		SourceSHA256: sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev resolves HEAD from root/.git without running git, which
// would search directories above the checkout.
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
				return rev
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go and go.mod file under root, skipping
// hidden directories (build output, VCS metadata).
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// inputMeta records the input properties the system's behaviour
// depends on.
type inputMeta struct {
	Campaigns      int      `json:"campaigns"`
	PairsPerPass   int      `json:"pairs_per_pass"`
	Receptors      int      `json:"distinct_receptors"`
	Ligands        int      `json:"distinct_ligands"`
	ReceptorAtoms  [2]int   `json:"receptor_atoms_min_max"`
	LigandTorsions [2]int   `json:"ligand_torsions_min_max"`
	MapSetKeys     int      `json:"map_set_keys_per_pass"`
	SamplePair     string   `json:"kernel_sample_pair"`
	VinaExactWS    int      `json:"vina_exact_ws_bytes"`
	AD4ExactWS     int      `json:"ad4_exact_ws_bytes"`
	Submissions    int      `json:"scheduled_submissions,omitempty"`
	CampaignCodes  []string `json:"campaign_codes"`
}

func describeInputs(in *inputs, p *prepared, k *kernelPair, submissions int) inputMeta {
	m := inputMeta{Campaigns: len(in.Campaigns), Submissions: submissions, SamplePair: k.name,
		VinaExactWS: k.vina.ExactWorkingSetBytes(), AD4ExactWS: k.ad4.ExactWorkingSetBytes(),
		ReceptorAtoms: [2]int{1 << 30, 0}, LigandTorsions: [2]int{1 << 30, 0}}
	recs, ligs := map[string]bool{}, map[string]bool{}
	for _, c := range in.Campaigns {
		m.PairsPerPass += c.pairs()
		m.MapSetKeys += len(mapSetKeys(c, p))
		m.CampaignCodes = append(m.CampaignCodes, strings.Join(c.Receptors, ",")+" x "+strings.Join(c.Ligands, ","))
		for _, r := range c.Receptors {
			recs[r] = true
		}
		for _, l := range c.Ligands {
			ligs[l] = true
		}
	}
	m.Receptors, m.Ligands = len(recs), len(ligs)
	for _, r := range p.recs {
		m.ReceptorAtoms[0] = min(m.ReceptorAtoms[0], r.NumAtoms())
		m.ReceptorAtoms[1] = max(m.ReceptorAtoms[1], r.NumAtoms())
	}
	for _, l := range p.ligs {
		m.LigandTorsions[0] = min(m.LigandTorsions[0], l.Tree.NumTorsions())
		m.LigandTorsions[1] = max(m.LigandTorsions[1], l.Tree.NumTorsions())
	}
	return m
}

// mapSetKeys is the set of distinct AutoGrid map sets one campaign
// needs: receptor × canonical ligand type list, over the receptors
// preparation accepts.
func mapSetKeys(c campaignInput, p *prepared) map[string]bool {
	keys := map[string]bool{}
	for _, r := range c.Receptors {
		if _, ok := p.recs[r]; !ok {
			continue
		}
		for _, l := range c.Ligands {
			keys[r+"|"+p.ligKey[l]] = true
		}
	}
	return keys
}

// cpuTimes reads the host's aggregate CPU tick counters from
// /proc/stat: the total and the part stolen by the hypervisor.
func cpuTimes() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealMeter reports the share of host CPU time the hypervisor stole
// over an interval: other tenants' load, which moves wall-clock
// metrics without any change to the code.
type stealMeter struct{ total, steal float64 }

func startSteal() stealMeter {
	t, s := cpuTimes()
	return stealMeter{t, s}
}

func (m stealMeter) frac() float64 {
	t, s := cpuTimes()
	if t <= m.total {
		return 0
	}
	return (s - m.steal) / (t - m.total)
}
