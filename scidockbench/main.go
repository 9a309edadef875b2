// Command scidockbench is the repository's end-to-end benchmark. It
// runs one named workload of SciDock campaigns through the public
// entry points — the campaign service (campaign.Manager behind
// campaign.NewHandler), core.NewCampaign and core.BuildWorkflow,
// engine.RunContext and prov.DB.Query — for a fixed number of seconds,
// checks every campaign's output against a sequential run of the same
// inputs, and prints its metrics as one JSON object on the last line
// of standard output.
//
//	scidockbench --workload vina-screen --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// replays the workload's campaigns with a span around each layer call
// and prints the per-layer metrics instead. METRICS.md describes
// every metric and workload. run.sh builds and runs it from the root
// of a checkout.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/parallel"
)

const (
	// setupProbes is how many fresh processes setup_s is the median of.
	setupProbes = 5
	// referenceWorkers is how many sequential reference campaigns run
	// at once.
	referenceWorkers = 2
	// monitorThink is the monitor's pause between rounds: a dashboard
	// polling the running campaigns.
	monitorThink = 5 * time.Millisecond
	// serveSegment is the length of the slices of serve-mixed's window
	// its latency medians are taken over.
	serveSegment = 5 * time.Second
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics in report order.
var endToEnd = []string{
	"pairs_per_s", "campaign_wall_s", "tet_virtual_s", "cost_usd", "setup_s",
	"peak_rss_mb", "query_p50_ms", "status_p50_ms",
}

// bench is one run of one workload.
type bench struct {
	in     *inputs
	p      *prepared
	window time.Duration

	metrics map[string]metric
	report  map[string]any

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	// observed holds the outcome digest of every execution, by
	// campaign input index.
	observed map[int][]string
	ops      opStats
	// cids numbers traced campaigns across replays.
	cids atomic.Int64
}

func (b *bench) add(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one attempted campaign or request, failed when err is set.
func (b *bench) op(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		b.failures = append(b.failures, err.Error())
	}
}

func (b *bench) observe(k int, o outcome) {
	b.mu.Lock()
	b.observed[k] = append(b.observed[k], o.digest())
	b.mu.Unlock()
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fl := flag.NewFlagSet("scidockbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload: vina-screen, ad4-screen or serve-mixed")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Int("seconds", 25, "measured window, seconds")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	probe := fl.Bool("setup-probe", false, "set up, print ready and exit (used to time setup_s)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "scidockbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	in, err := generate(*workload, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scidockbench:", err)
		return 2
	}
	if *probe {
		if err := setupProbe(in); err != nil {
			fmt.Fprintln(os.Stderr, "scidockbench: setup:", err)
			return 1
		}
		return 0
	}
	if err := measure(in, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "scidockbench:", err)
		return 1
	}
	return 0
}

// setup is everything done before load is accepted: preparing the
// workload's molecules, filling the radial-table cache for their atom
// types and, for serve-mixed, starting the service.
func setup(in *inputs) (*prepared, *service, error) {
	p, err := prepareInputs(in)
	if err != nil {
		return nil, nil, err
	}
	p.warmTables()
	if in.Workload != wlServe {
		return p, nil, nil
	}
	svc, err := startService()
	return p, svc, err
}

func setupProbe(in *inputs) error {
	_, svc, err := setup(in)
	if err != nil {
		return err
	}
	fmt.Println("ready")
	if svc != nil {
		svc.stop()
	}
	return nil
}

// setupSeconds times setupProbes fresh processes from exec until they
// report ready and returns the median, in seconds.
func setupSeconds(in *inputs) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ds []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--workload", in.Workload, "--seed", strconv.FormatInt(in.Seed, 10), "--setup-probe")
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t)
		//lint:ignore discarderr drain whatever follows so Wait cannot block on a full pipe
		_, _ = io.Copy(io.Discard, out)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		if rerr != nil || strings.TrimSpace(line) != "ready" {
			return 0, fmt.Errorf("setup probe printed %q: %v", line, rerr)
		}
		ds = append(ds, d.Seconds())
	}
	return median(ds), nil
}

// measure runs the workload and prints the result.
func measure(in *inputs, window time.Duration, traced bool) error {
	setupS, err := setupSeconds(in)
	if err != nil {
		return err
	}
	p, svc, err := setup(in)
	if err != nil {
		return err
	}
	b := &bench{in: in, p: p, window: window, metrics: map[string]metric{}, report: map[string]any{},
		observed: map[int][]string{}}
	ctx := context.Background()
	steal := startSteal()
	var used []int
	switch {
	case traced:
		used, err = b.runTraced(ctx)
	case svc != nil:
		used, err = b.runServe(ctx, svc)
	default:
		used, err = b.runScreen(ctx)
	}
	b.report["host_steal_frac"] = steal.frac()
	if svc != nil {
		svc.stop()
	}
	if err != nil {
		return err
	}
	b.add("setup_s", setupS, "s")
	b.attempted += b.ops.attempted
	b.failed += b.ops.failed
	b.failures = append(b.failures, b.ops.errs...)
	if err := b.verify(ctx, used); err != nil {
		return err
	}

	kp, err := newKernelPair(in, p)
	if err != nil {
		return err
	}
	b.op(kp.checkScoring())
	submissions := 0
	for _, s := range in.Schedule {
		if s.Due < window {
			submissions++
		}
	}
	b.report["host"] = readHost(".")
	b.report["inputs"] = describeInputs(in, p, kp, submissions)
	if traced {
		if err := kp.measureKernels(b.add); err != nil {
			return err
		}
	}
	return b.print(traced)
}

// verify re-runs every campaign input in used with Parallelism 1,
// outside the timed window, and compares each observed execution's
// digest against it. Two references run at a time, each sequential
// within itself. The workload's virtual TET and EC2 bill are the
// medians over these campaigns.
func (b *bench) verify(ctx context.Context, used []int) error {
	type ref struct {
		digest    string
		tet, cost float64
		err       error
	}
	refs := make([]ref, len(used))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < referenceWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cfg, err := b.in.Campaigns[used[i]].config()
				if err != nil {
					refs[i].err = err
					continue
				}
				cfg.Parallelism = 1
				camp, err := core.RunContext(ctx, cfg)
				if err != nil {
					refs[i].err = fmt.Errorf("sequential reference of campaign %d: %w", used[i], err)
					continue
				}
				o, err := campaignOutcome(camp)
				refs[i] = ref{digest: o.digest(), tet: o.TET, cost: camp.Engine.Cluster.Cost(), err: err}
			}
		}()
	}
	for i := range used {
		next <- i
	}
	close(next)
	wg.Wait()

	var tets, costs []float64
	for i, k := range used {
		r := refs[i]
		if r.err != nil {
			return r.err
		}
		for _, got := range b.observed[k] {
			if got != r.digest {
				b.failed++
				b.failures = append(b.failures, fmt.Sprintf("campaign input %d: digest %.12s differs from sequential %.12s", k, got, r.digest))
			}
		}
		tets = append(tets, r.tet)
		costs = append(costs, r.cost)
	}
	b.add("tet_virtual_s", median(tets), "s")
	b.add("cost_usd", median(costs), "USD")
	b.report["reference_campaigns"] = len(used)
	return nil
}

// print writes the human-readable report line and then the result
// object, which must be the last line of standard output.
func (b *bench) print(traced bool) error {
	names := endToEnd
	if traced {
		names = nil
		for n := range b.metrics {
			if !slices.Contains(endToEnd, n) {
				names = append(names, n)
			}
		}
	}
	out := map[string]metric{}
	for _, n := range names {
		m, ok := b.metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = m
	}
	frac := float64(b.failed) / float64(max(b.attempted, 1))
	b.report["failed_ops_frac"] = frac
	b.report["all_metrics"] = b.metrics
	if len(b.failures) > 0 {
		b.report["failures"] = b.failures[:min(len(b.failures), 20)]
	}
	rep, err := json.Marshal(map[string]any{"report": b.report})
	if err != nil {
		return err
	}
	res, err := json.Marshal(map[string]any{
		"correct":   b.failed == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", rep, res)
	if b.failed > 0 {
		return fmt.Errorf("%d of %d operations failed or produced wrong output", b.failed, b.attempted)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// endWindow records the metrics every timed run shares, once the
// monitor has stopped. segs bound the window's segments — the
// screens' passes over their campaign list, serve-mixed's
// serveSegment slices — and the latency metrics are the medians of
// the segments' medians.
func (b *bench) endWindow(pairsPerS, wall float64, walls []float64, segs []time.Time) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	query, qn := segmentMedian(b.ops.query, segs)
	status, sn := segmentMedian(b.ops.status, segs)
	b.add("pairs_per_s", pairsPerS, "1/s")
	b.add("campaign_wall_s", wall, "s")
	b.add("peak_rss_mb", rss, "MB")
	b.add("query_p50_ms", query, "ms")
	b.add("status_p50_ms", status, "ms")
	b.report["samples"] = map[string]int{"campaigns": len(walls), "queries": len(b.ops.query.ms), "status": len(b.ops.status.ms),
		"segments": len(segs) - 1, "query_segments": qn, "status_segments": sn}
	b.report["query_ms"] = spreadOf(b.ops.query.ms)
	b.report["status_ms"] = spreadOf(b.ops.status.ms)
	b.report["campaign_wall_s"] = spreadOf(walls)
	if len(walls) == 0 || len(b.ops.query.ms) == 0 || len(b.ops.status.ms) == 0 {
		return fmt.Errorf("window too short: %d campaigns, %d queries, %d status calls completed",
			len(walls), len(b.ops.query.ms), len(b.ops.status.ms))
	}
	return nil
}

// runScreen is the screens' timed window: passes over the campaign
// list, one campaign at a time in a closed loop, while a paced monitor
// polls the running campaign's status and provenance. Every complete
// pass does the same work, so pairs_per_s and campaign_wall_s are the
// medians over passes of each pass's rate and median wall, and the
// passes are the latency metrics' segments; a window too short for a
// pass is one segment.
func (b *bench) runScreen(ctx context.Context) ([]int, error) {
	reg := &registry{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		monitor(stop, reg, monitorThink, &b.ops)
	}()

	n := len(b.in.Campaigns)
	var walls, passRates, passWalls []float64
	pairs, passPairs, passFirst := 0, 0, 0
	t0 := time.Now()
	segs := []time.Time{t0}
	var err error
	for i := 0; err == nil && time.Since(t0) < b.window; i++ {
		k := i % n
		var wall time.Duration
		var ok bool
		if wall, ok, err = b.screenCampaign(ctx, reg, k); ok {
			walls = append(walls, wall.Seconds())
			pairs += b.in.Campaigns[k].pairs()
			passPairs += b.in.Campaigns[k].pairs()
		}
		if k == n-1 {
			now := time.Now()
			passRates = append(passRates, float64(passPairs)/now.Sub(segs[len(segs)-1]).Seconds())
			passWalls = append(passWalls, median(walls[passFirst:]))
			segs = append(segs, now)
			passPairs, passFirst = 0, len(walls)
		}
	}
	total := time.Since(t0)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	rate, wall := float64(pairs)/total.Seconds(), median(walls)
	if len(passRates) > 0 {
		rate, wall = median(passRates), median(passWalls)
	} else {
		segs = append(segs, t0.Add(total))
	}
	b.report["passes"] = len(passRates)
	used := make([]int, n)
	for k := range used {
		used[k] = k
	}
	return used, b.endWindow(rate, wall, walls, segs)
}

// screenCampaign runs campaign input k on a Manager of its own while
// the monitor polls it, so finished campaigns do not accumulate in
// memory over a window whose length is set in seconds. It returns the
// wall time from submit to DONE; ok is false when the campaign was
// refused or failed, which is counted in b.
func (b *bench) screenCampaign(ctx context.Context, reg *registry, k int) (wall time.Duration, ok bool, err error) {
	c := b.in.Campaigns[k]
	cfg, err := c.config()
	if err != nil {
		return 0, false, err
	}
	m := campaign.NewManager(nil, campaign.Limits{MaxRunning: 1, MaxRunningPerTenant: 1, MaxQueuedPerTenant: 1})
	defer m.Shutdown(ctx)
	ts := time.Now()
	id, err := m.SubmitConfig(campaign.Spec{Mode: c.Mode.String(), Effort: c.Effort, Cores: c.Cores, Seed: c.Seed}, cfg)
	if err != nil {
		b.op(fmt.Errorf("submit: %w", err))
		return 0, false, nil
	}
	tgt := &managerTarget{m: m, id: id, sqls: monitorSQL(c)}
	reg.add(tgt)
	camp, err := m.Wait(ctx, id)
	wall = time.Since(ts)
	reg.remove(tgt)
	b.op(err)
	if err != nil {
		return 0, false, nil
	}
	o, err := campaignOutcome(camp)
	if err != nil {
		return 0, false, err
	}
	b.observe(k, o)
	return wall, true, nil
}

// runServe is serve-mixed's timed window: the schedule's submissions
// are POSTed on time (open loop), each campaign's wall runs from when
// its submission was due until the Manager reports it DONE, and one
// closed-loop client polls started campaigns' status and provenance
// over HTTP. Outputs are fetched over HTTP after the window.
func (b *bench) runServe(ctx context.Context, svc *service) ([]int, error) {
	reg := &registry{}
	stop := make(chan struct{})
	var mon sync.WaitGroup
	mon.Add(1)
	go func() {
		defer mon.Done()
		monitor(stop, reg, monitorThink, &b.ops)
	}()

	type finished struct {
		k  int
		id int64
	}
	var (
		mu    sync.Mutex
		walls []float64
		done  []finished
		late  latencies
		used  = map[int]bool{}
		pairs int
		wg    sync.WaitGroup
	)
	t0 := time.Now()
	for _, s := range b.in.Schedule {
		if s.Due >= b.window {
			break
		}
		due := t0.Add(s.Due)
		time.Sleep(time.Until(due))
		late.add(time.Since(due))
		used[s.Input] = true
		c := b.in.Campaigns[s.Input]
		spec := *c.Spec
		spec.Tenant = s.Tenant
		var acc struct {
			ID int64 `json:"id"`
		}
		if _, err := svc.do("POST", "/campaigns", spec, &acc); err != nil {
			b.op(fmt.Errorf("submit refused: %w", err))
			continue
		}
		reg.add(&httpTarget{svc: svc, id: acc.ID, sqls: monitorSQL(c)})
		wg.Add(1)
		go func(k int, id int64, due time.Time) {
			defer wg.Done()
			_, err := svc.m.Wait(ctx, id)
			wall := time.Since(due)
			b.op(err)
			if err != nil {
				return
			}
			mu.Lock()
			walls = append(walls, wall.Seconds())
			pairs += b.in.Campaigns[k].pairs()
			done = append(done, finished{k, id})
			mu.Unlock()
		}(s.Input, acc.ID, due)
	}
	wg.Wait()
	total := time.Since(t0)
	close(stop)
	mon.Wait()
	b.report["loadgen_late_p99_ms"] = quantile(late, 0.99)
	segs := []time.Time{t0}
	for t := t0.Add(serveSegment); t.Before(t0.Add(total)); t = t.Add(serveSegment) {
		segs = append(segs, t)
	}
	segs = append(segs, t0.Add(total))
	if err := b.endWindow(float64(pairs)/total.Seconds(), median(walls), walls, segs); err != nil {
		return nil, err
	}

	for _, d := range done {
		rows, err := svc.query(d.id, digestSQL)
		if err != nil {
			return nil, err
		}
		st, err := svc.status(d.id)
		if err != nil {
			return nil, err
		}
		b.observe(d.k, outcome{Rows: rows, TET: st.TETSecs, Activations: st.Activations, Failures: st.Failures, Aborted: st.Aborted})
	}
	var ks []int
	for k := range b.in.Campaigns {
		if used[k] {
			ks = append(ks, k)
		}
	}
	return ks, nil
}

// poolSampler appends the shared CPU pool's tokens in use to out,
// sampled every few milliseconds until stop closes.
func poolSampler(stop <-chan struct{}, out *[]float64, wg *sync.WaitGroup) {
	defer wg.Done()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			_, inUse, _ := parallel.Tokens().Occupancy()
			*out = append(*out, float64(inUse))
		}
	}
}
