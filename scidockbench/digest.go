package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/prov"
)

// digestSQL selects the docking results a campaign must reproduce.
const digestSQL = "SELECT receptor, ligand, program, feb, rmsd, nruns FROM ddocking"

// outcome is what a campaign must reproduce exactly: its docking rows,
// virtual TET and activation, failure and abort counts.
type outcome struct {
	Rows        [][]string
	TET         float64
	Activations int
	Failures    int
	Aborted     int
}

// digest hashes an outcome with the rows in sorted order, so the
// parallel and sequential runs compare equal whatever order the
// engine inserted them in.
func (o outcome) digest() string {
	lines := make([]string, len(o.Rows))
	for i, r := range o.Rows {
		lines[i] = strings.Join(r, "\t")
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	fmt.Fprintf(h, "tet=%s acts=%d fails=%d aborts=%d\n",
		strconv.FormatFloat(o.TET, 'g', -1, 64), o.Activations, o.Failures, o.Aborted)
	return hex.EncodeToString(h.Sum(nil))
}

// stringRows renders result values the way the HTTP query endpoint
// does, so in-process and served digests agree.
func stringRows(res *prov.Result) [][]string {
	out := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = make([]string, len(r))
		for j, v := range r {
			out[i][j] = fmt.Sprint(v)
		}
	}
	return out
}

// campaignOutcome reads an executed campaign's outcome in-process.
func campaignOutcome(c *core.Campaign) (outcome, error) {
	res, err := c.Engine.DB.Query(digestSQL)
	if err != nil {
		return outcome{}, fmt.Errorf("digest query: %w", err)
	}
	o := outcome{Rows: stringRows(res), TET: c.TET()}
	for _, r := range c.Reports {
		o.Activations += r.Activations
		o.Failures += r.Failures
		o.Aborted += r.Aborted
	}
	return o, nil
}
