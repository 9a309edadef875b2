package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/prep"
)

// steeringSQL is the live count GET /campaigns/{id} runs (§IV.B).
const steeringSQL = "SELECT count(*) FROM hactivation WHERE status = 'ABORTED' OR status = 'FAILED'"

// queryNames name the provenance queries the monitor rotates through.
var queryNames = []string{"fig10", "fig11", "table3"}

// monitorSQL returns the paper's Figure-10 and Figure-11 queries and
// Table 3's statistics for the campaign's first ligand, in queryNames
// order.
func monitorSQL(c campaignInput) []string {
	program := prep.ProgramAD4
	if c.Mode == core.ModeVina {
		program = prep.ProgramVina
	}
	return []string{
		experiments.Query1SQL,
		experiments.Query2SQL,
		fmt.Sprintf("SELECT count(*), avg(feb) FROM ddocking WHERE ligand = '%s' AND program = '%s' AND feb < 0",
			c.Ligands[0], program),
	}
}

// watched is a started campaign the monitor polls.
type watched interface {
	// status runs the status call; started reports whether the
	// campaign's provenance existed, so the live count ran.
	status() (state campaign.State, started bool, err error)
	// query runs the k-th monitor query.
	query(k int) error
}

// registry is the set of campaigns the monitor may poll, visited
// round robin.
type registry struct {
	mu    sync.Mutex
	items []watched
	next  int
}

func (r *registry) add(w watched) {
	r.mu.Lock()
	r.items = append(r.items, w)
	r.mu.Unlock()
}

func (r *registry) remove(w watched) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, x := range r.items {
		if x == w {
			r.items = append(r.items[:i], r.items[i+1:]...)
			return
		}
	}
}

func (r *registry) pick() watched {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.items) == 0 {
		return nil
	}
	r.next = (r.next + 1) % len(r.items)
	return r.items[r.next]
}

// opStats counts the monitor's requests and keeps their latencies.
type opStats struct {
	mu        sync.Mutex
	status    series
	query     series
	attempted int
	failed    int
	errs      []string
}

func (s *opStats) record(l *series, start time.Time, d time.Duration, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	if err != nil {
		s.failed++
		s.errs = append(s.errs, err.Error())
		return
	}
	if l != nil {
		l.add(start, d)
	}
}

// monitor is a closed-loop client: it polls a started campaign's
// status and, while it runs, issues one provenance query, then waits
// think before the next round. It returns when stop closes.
func monitor(stop <-chan struct{}, reg *registry, think time.Duration, st *opStats) {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		w := reg.pick()
		if w == nil {
			time.Sleep(time.Millisecond)
			continue
		}
		t := time.Now()
		state, started, err := w.status()
		d := time.Since(t)
		switch {
		case err != nil:
			st.record(nil, t, d, err)
		case !started:
			st.record(nil, t, d, nil)
		default:
			st.record(&st.status, t, d, nil)
		}
		if err == nil && state.Terminal() {
			reg.remove(w)
		}
		if err == nil && started && state == campaign.StateRunning {
			t = time.Now()
			err := w.query(i % len(queryNames))
			st.record(&st.query, t, time.Since(t), err)
		}
		if think > 0 {
			time.Sleep(think)
		}
	}
}

// managerTarget polls a campaign through Manager calls in-process.
type managerTarget struct {
	m    *campaign.Manager
	id   int64
	sqls []string
}

func (t *managerTarget) status() (campaign.State, bool, error) {
	st, err := t.m.Status(t.id)
	return st.State, st.Problems >= 0, err
}

func (t *managerTarget) query(k int) error {
	_, err := t.m.Query(t.id, t.sqls[k])
	return err
}

// httpTarget polls a campaign through the service's HTTP API.
type httpTarget struct {
	svc  *service
	id   int64
	sqls []string
}

func (t *httpTarget) status() (campaign.State, bool, error) {
	st, err := t.svc.status(t.id)
	return st.State, st.Problems >= 0, err
}

func (t *httpTarget) query(k int) error {
	_, err := t.svc.query(t.id, t.sqls[k])
	return err
}

// dbTarget queries a replayed campaign's provenance database directly,
// with a span around each prov.DB.Query; its status call is the
// steering count the service's status endpoint runs.
type dbTarget struct {
	camp *core.Campaign
	sqls []string
	tr   *tracer
	cid  int64
}

func (t *dbTarget) timed(name, sql string) error {
	if t.tr == nil {
		_, err := t.camp.Engine.DB.Query(sql)
		return err
	}
	id := t.tr.begin(name, -1, t.cid)
	_, err := t.camp.Engine.DB.Query(sql)
	t.tr.end(id)
	return err
}

func (t *dbTarget) status() (campaign.State, bool, error) {
	return campaign.StateRunning, true, t.timed("prov.query_steering", steeringSQL)
}

func (t *dbTarget) query(k int) error {
	return t.timed("prov.query_"+queryNames[k], t.sqls[k])
}
