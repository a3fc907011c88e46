package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/dist"
	"github.com/cnfet/yieldlab/internal/experiments"
	"github.com/cnfet/yieldlab/internal/jobstore"
	"github.com/cnfet/yieldlab/internal/montecarlo"
	"github.com/cnfet/yieldlab/internal/query"
	"github.com/cnfet/yieldlab/internal/rareevent"
	"github.com/cnfet/yieldlab/internal/renewal"
	"github.com/cnfet/yieldlab/internal/rowyield"
	"github.com/cnfet/yieldlab/internal/server"
	"github.com/cnfet/yieldlab/internal/sweepstore"
)

// layerMetric names one per-layer metric, its unit, and the end-to-end
// metric and workload it should move.
type layerMetric struct {
	name, unit, moves string
}

// layerMetrics is the per-layer table in call-chain order.
var layerMetrics = []layerMetric{
	{"server.edge_self_us", "us", "latency_p50_ms, cpu_ms_per_op on warm-pf"},
	{"server.revalidate_us", "us", "latency_p50_ms on warm-pf"},
	{"server.encode_us", "us", "latency_p50_ms on warm-pf; nothing on cold-sweep"},
	{"server.shed", "count", "success_share on all"},
	{"query.canonical_us", "us", "cpu_ms_per_op on warm-pf"},
	{"query.model_lookup_us", "us", "latency_p50_ms on warm-pf"},
	{"query.evaluate_us", "us", "latency_p50_ms on warm-pf"},
	{"device.pf_eval_us", "us", "latency_p50_ms on warm-pf (small share)"},
	{"renewal.sweep_ms", "ms", "latency_p50_ms, ops_per_s, job_turnaround_p50_ms on cold-sweep"},
	{"renewal.sweeps", "count", "ops_per_s on cold-sweep"},
	{"renewal.cache_hit_share", "share", "ops_per_s on cold-sweep (1.0 on warm-pf)"},
	{"renewal.evictions", "count", "ops_per_s on cold-sweep"},
	{"sweepstore.persist_ms", "ms", "latency_p50_ms on cold-sweep"},
	{"sweepstore.bytes_written", "bytes", "latency_p50_ms, peak_rss_mb on cold-sweep"},
	{"jobs.queue_wait_ms", "ms", "job_turnaround_p50_ms on cold-sweep"},
	{"jobs.run_ms", "ms", "job_turnaround_p50_ms on cold-sweep"},
	{"jobstore.put_ms", "ms", "job_turnaround_p50_ms on cold-sweep"},
	{"jobstore.writes", "count", "job_turnaround_p50_ms on cold-sweep"},
	{"experiments.run_ms", "ms", "job_turnaround_p50_ms on cold-sweep"},
	{"montecarlo.round_ns", "ns", "latency_p50_ms on rare-row"},
	{"rareevent.estimate_ms.plain", "ms", "latency_p50_ms, ops_per_s on rare-row"},
	{"rareevent.estimate_ms.tilted", "ms", "latency_p50_ms, ops_per_s on rare-row"},
	{"rareevent.estimate_ms.auto", "ms", "latency_p50_ms, ops_per_s on rare-row"},
	{"rareevent.rounds_per_query", "count", "latency_p50_ms on rare-row"},
	{"rareevent.capped_share", "share", "success_share, latency_tail_ms on rare-row"},
	{"rareevent.off_reference_share", "share", "success_share on rare-row"},
	{"trace.overhead_pct", "%", "nothing (cost of recording spans)"},
}

// Probe sizes for the layers off a workload's own call chain: every traced
// run reports the whole table, measuring the other workloads' layers on a
// small sample of their own generated inputs.
const (
	probeWarmOps  = 300
	probeColdLaws = 2
	probeRareOps  = 3
	ownColdLaws   = 6
	mcProbeRounds = 1 << 14
)

// Operation ids of the probes' spans, one range per probe, above any
// replayed operation's id.
const (
	probeWarmOp     = 1_000_000
	probeColdOp     = 2_000_000
	probePutOp      = 3_000_000
	probeExpOp      = 4_000_000
	probeRoundsOp   = 5_000_000
	probeEstimateOp = 6_000_000
)

// tracedRun carries one traced run's shared state.
type tracedRun struct {
	w    *workload
	seed uint64
	tr   *tracer
	dir  string // this run's scratch directory
	out  string // the benchmark's output directory (prefill, spans)
	// digest identifies the checkout's sources, which key the prefill.
	digest string
	m      map[string]float64
	// prefill seeds the store of every in-process server the run builds
	// ("" = no store).
	prefill string
}

// runTraced replays the workload's generated inputs in-process through the
// server's own handler, then times the calls into each layer's public
// functions, and reports the per-layer metrics.
func runTraced(w *workload, seed uint64, d time.Duration, dir, out string) (report, error) {
	host := newHostRecord(w.name, seed, true)
	t := &tracedRun{w: w, seed: seed, tr: newTracer(), dir: dir, out: out, digest: host.SourceDigest,
		m: make(map[string]float64)}

	prefill := ""
	if w.store {
		var err error
		if prefill, err = ensurePrefill(out, t.digest); err != nil {
			return report{}, err
		}
	}
	t.prefill = prefill
	srv, err := newInProcessServer(dir, prefill)
	if err != nil {
		return report{}, err
	}
	c := newInProcessClient(srv.Handler(), map[int]string{})
	if err := warmUp(c, w.warm(seed)); err != nil {
		return report{}, err
	}
	before, err := c.stats()
	if err != nil {
		return report{}, err
	}
	if w.store {
		if err := checkPrefilled(before); err != nil {
			return report{}, err
		}
	}
	outcomes, _ := t.replay(c, t.tr, w.replayOps, d/2)
	after, err := c.stats()
	if err != nil {
		return report{}, err
	}
	t.counters(before, after)
	verdicts, err := checkAll(w, outcomes, c.etags)
	if err != nil {
		return report{}, err
	}
	s := summarize(outcomes, verdicts)
	// Each later phase builds its own server: return the replay's, which
	// holds a full sweep cache on cold-sweep, before the next one fills.
	debug.FreeOSMemory()
	if err := t.overhead(w.overheadOps); err != nil {
		return report{}, err
	}

	// Layer probes, sequential so no two timed calls share the CPUs.
	warmOps, coldLaws, rareOps := probeWarmOps, probeColdLaws, probeRareOps
	switch w.name {
	case "warm-pf":
		warmOps = 0 // time-bounded instead
	case "cold-sweep":
		coldLaws = ownColdLaws
	case "rare-row":
		rareOps = w.replayOps
	}
	warmSrv, err := newInProcessServer(filepath.Join(dir, "warm"), "")
	if err != nil {
		return report{}, err
	}
	warmC := newInProcessClient(warmSrv.Handler(), map[int]string{})
	if err := warmUp(warmC, warmPF.warm(seed)); err != nil {
		return report{}, err
	}
	if err := t.probeWarm(warmSrv, warmC, warmOps, d/4); err != nil {
		return report{}, err
	}
	if err := t.probeCold(coldLaws, outcomes); err != nil {
		return report{}, err
	}
	debug.FreeOSMemory() // the cold probe's cache is full, too
	if err := t.probeRare(rareOps); err != nil {
		return report{}, err
	}
	t.spanMetrics()

	// The crossover the server would log on this host; measured last so
	// every timed call above ran at the library default kernel choice.
	host.Crossover = renewal.Calibrate()
	if err := t.tr.writeFile(filepath.Join(out, "trace-"+w.name+".jsonl")); err != nil {
		return report{}, err
	}

	fmt.Printf("perfbench %s seed=%d seconds=%.0f (traced, in-process replay of %d ops)\n",
		w.name, seed, d.Seconds(), len(outcomes))
	printHost(host)
	s.print(len(outcomes))
	metrics := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		v, ok := t.m[lm.name]
		if !ok || math.IsNaN(v) {
			return report{}, fmt.Errorf("per-layer metric %s not measured", lm.name)
		}
		metrics[lm.name] = metric{v, lm.unit}
		fmt.Printf("layer %-30s %14.6g %-5s should move %s\n", lm.name, v, lm.unit, lm.moves)
	}
	fmt.Printf("spans: %d, written to %s\n", len(t.tr.snapshot()), filepath.Join(out, "trace-"+w.name+".jsonl"))
	return report{Correct: s.wrong == 0, Attempted: len(outcomes), Failed: s.failed, Metrics: metrics}, nil
}

// newInProcessServer builds a server the way yieldserver does with
// default flags (a non-empty prefill adds the sweep store, seeded like an
// untraced run's, and the job journal), except that the FFT/direct
// crossover keeps the library default: a per-layer number must not depend
// on a host-timed kernel choice.
func newInProcessServer(dir, prefill string) (*server.Server, error) {
	cfg := server.Config{
		Params: experiments.DefaultParams(),
		// The binary logs a line per request; format them, drop the bytes.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if prefill != "" {
		if err := seedStore(prefill, filepath.Join(dir, "store")); err != nil {
			return nil, err
		}
		st, err := sweepstore.Open(filepath.Join(dir, "store"))
		if err != nil {
			return nil, err
		}
		journal, err := jobstore.Open(filepath.Join(dir, "store", "jobs"))
		if err != nil {
			return nil, err
		}
		cfg.Store, cfg.Jobs = st, journal
	}
	return server.New(cfg)
}

// replay sends the workload's operations through the in-process handler
// with the workload's connection count: opsPerConn per connection when
// positive (so counters repeat exactly), otherwise for the time budget.
// Each operation is a root span with the handler call (or the job's
// submit-to-terminal turnaround and its queue wait and run) beneath it; a
// nil tracer replays bare.
func (t *tracedRun) replay(c *client, tr *tracer, opsPerConn int, budget time.Duration) ([]outcome, time.Duration) {
	start := time.Now()
	deadline := start.Add(budget)
	per := make([][]outcome, t.w.conns)
	var wg sync.WaitGroup
	for conn := 0; conn < t.w.conns; conn++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				o := t.w.gen(t.seed, conn, i)
				if opsPerConn > 0 && i >= opsPerConn || opsPerConn == 0 && !o.Follows && !time.Now().Before(deadline) {
					break
				}
				id := i*t.w.conns + conn + 1
				root := tr.begin(id, 0, "op."+o.Kind)
				name := "server.serve_http"
				if o.isJob() {
					name = "jobs.turnaround"
				}
				inner := tr.begin(id, root, name)
				r := c.run(o)
				tr.end(inner)
				if r.job != nil && r.job.StartedAt != nil && r.job.FinishedAt != nil {
					tr.record(id, inner, "jobs.queue_wait", r.job.CreatedAt, *r.job.StartedAt)
					tr.record(id, inner, "jobs.run", *r.job.StartedAt, *r.job.FinishedAt)
				}
				tr.end(root)
				r.conn, r.i = conn, i
				per[conn] = append(per[conn], r)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []outcome
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// counters records the server counters that moved over the replay.
func (t *tracedRun) counters(before, after server.StatsJSON) {
	hits := float64(after.SweepCache.Hits - before.SweepCache.Hits)
	misses := float64(after.SweepCache.Misses - before.SweepCache.Misses)
	t.m["server.shed"] = float64(after.ShedRequests - before.ShedRequests)
	t.m["renewal.sweeps"] = float64(after.SweepCache.Sweeps - before.SweepCache.Sweeps)
	t.m["renewal.evictions"] = float64(after.SweepCache.Evictions - before.SweepCache.Evictions)
	t.m["renewal.cache_hit_share"] = hits / math.Max(hits+misses, 1)
	t.m["jobstore.writes"] = 0
	if before.Journal != nil && after.Journal != nil {
		t.m["jobstore.writes"] = float64(after.Journal.Puts - before.Journal.Puts)
	}
	fmt.Printf("replay server counters: %s\n", statsDelta(before, after))
}

// overhead replays the same first operations three times, each time on a
// fresh in-process server: bare, traced, bare. The traced pass's wall time
// over the bare passes' mean, in percent, is the cost of recording spans;
// bracketing it between two bare passes cancels a drift across the passes.
func (t *tracedRun) overhead(opsPerConn int) error {
	var elapsed [3]time.Duration
	for pass, tr := range []*tracer{nil, newTracer(), nil} {
		srv, err := newInProcessServer(filepath.Join(t.dir, fmt.Sprintf("overhead-%d", pass)), t.prefill)
		if err != nil {
			return err
		}
		c := newInProcessClient(srv.Handler(), map[int]string{})
		if err := warmUp(c, t.w.warm(t.seed)); err != nil {
			return err
		}
		_, elapsed[pass] = t.replay(c, tr, opsPerConn, 0)
		debug.FreeOSMemory()
	}
	bare := float64(elapsed[0]+elapsed[2]) / 2
	t.m["trace.overhead_pct"] = 100 * (float64(elapsed[1]) - bare) / bare
	return nil
}

// probeWarm times the warm-hit layers on warm-pf's generated pf points:
// the whole handler, a revalidation, and then the same spec's evaluation
// taken apart into its public calls. n > 0 fixes the point count, else the
// probe runs for budget.
func (t *tracedRun) probeWarm(srv *server.Server, c *client, n int, budget time.Duration) error {
	sess := srv.Session()
	ctx := context.Background()
	deadline := time.Now().Add(budget)
	step, maxWidth := sess.Params().GridStepNM, sess.Params().MaxWidthNM
	for i, done := 0, 0; n > 0 && done < n || n == 0 && time.Now().Before(deadline); i++ {
		o := warmPF.gen(t.seed, 0, i)
		if o.Kind != kindPF {
			continue
		}
		done++
		id := probeWarmOp + i
		spec := *o.Spec
		root := t.tr.begin(id, 0, "probe.warm")
		var r outcome
		t.tr.call(id, root, "server.serve_http", func() { r = c.run(o) })
		if r.status != http.StatusOK {
			return fmt.Errorf("warm probe %s: status %d", o.Path, r.status)
		}
		c.etags[o.Key] = r.etag
		rv := pfGetOp(kindReval, o.Key)
		var rr outcome
		t.tr.call(id, root, "server.revalidate", func() { rr = c.run(rv) })
		if rr.status != http.StatusNotModified {
			return fmt.Errorf("warm probe revalidation %s: status %d", rv.Path, rr.status)
		}
		var res query.Result
		var err error
		t.tr.call(id, root, "query.evaluate", func() { res, err = sess.Evaluate(ctx, spec) })
		if err != nil {
			return err
		}
		var canonSpec query.Spec
		t.tr.call(id, root, "query.canonical", func() { canonSpec, _, err = spec.Canonical() })
		if err != nil {
			return err
		}
		params, _, err := canonSpec.FailureParams()
		if err != nil {
			return err
		}
		var fm *device.FailureModel
		t.tr.call(id, root, "query.model_lookup", func() {
			law, lerr := pitchLaw(canonSpec.PitchMeanNM)
			if lerr != nil {
				err = lerr
				return
			}
			count, _, lerr := sess.Cache().ModelTracked(law, renewal.WithStep(step), renewal.WithMaxWidth(maxWidth))
			if lerr != nil {
				err = lerr
				return
			}
			fm, err = device.NewFailureModel(count, params)
		})
		if err != nil {
			return err
		}
		t.tr.call(id, root, "device.pf_eval", func() { _, err = fm.FailureProb(res.PF.WidthNM) })
		if err != nil {
			return err
		}
		t.tr.call(id, root, "server.encode", func() { _ = indentJSON(res.PF) })
		t.tr.end(root)
	}
	return nil
}

// probeCold times the cold-path layers on unseen laws from cold-sweep's
// generator: a full-horizon sweep through a bounded cache of the
// benchmark's own, the store persisting it, journal writes of the run's
// job records, and a cheap experiments batch.
func (t *tracedRun) probeCold(laws int, outcomes []outcome) error {
	// The probe's cache starts where a cold-sweep server's does: full, from
	// the prefill records, so each persist covers a full cache.
	prefill, err := ensurePrefill(t.out, t.digest)
	if err != nil {
		return err
	}
	storeDir := filepath.Join(t.dir, "probe-store")
	if err := seedStore(prefill, storeDir); err != nil {
		return err
	}
	store, err := sweepstore.Open(storeDir)
	if err != nil {
		return err
	}
	cache := renewal.NewSweepCache()
	cache.SetMaxEntries(server.DefaultCacheEntries)
	if n, err := sweepstore.WarmCache(store, cache); err != nil {
		return err
	} else if n != prefillLaws {
		return fmt.Errorf("probe store warmed %d of %d prefill records", n, prefillLaws)
	}
	params := experiments.DefaultParams()
	var written []float64
	for j := 0; j < laws; j++ {
		id := probeColdOp + j
		spec := query.Spec{Kind: query.KindPF, PitchMeanNM: coldPitch(t.seed, 1_000_000+j)}
		law, err := pitchLaw(spec.PitchMeanNM)
		if err != nil {
			return err
		}
		root := t.tr.begin(id, 0, "renewal.sweep")
		var m *renewal.Model
		t.tr.call(id, root, "renewal.model_tracked", func() {
			var hit bool
			m, hit, err = cache.ModelTracked(law, renewal.WithStep(params.GridStepNM), renewal.WithMaxWidth(params.MaxWidthNM))
			if err == nil && hit {
				err = fmt.Errorf("law %g nm is not unseen", spec.PitchMeanNM)
			}
		})
		if err != nil {
			return err
		}
		t.tr.call(id, root, "renewal.count_pmf", func() { _, err = m.CountPMF(155) })
		if err != nil {
			return err
		}
		t.tr.end(root)

		size0 := dirBytes(storeDir)
		t.tr.call(id, 0, "sweepstore.persist", func() { _, err = sweepstore.PersistCache(store, cache) })
		if err != nil {
			return err
		}
		written = append(written, float64(dirBytes(storeDir)-size0))
	}
	t.m["sweepstore.bytes_written"] = median(written)

	// Journal writes of records shaped like the replay's finished jobs.
	journal, err := jobstore.Open(filepath.Join(t.dir, "probe-jobs"))
	if err != nil {
		return err
	}
	puts := 0
	for k, o := range outcomes {
		if o.job == nil || puts >= 16 {
			continue
		}
		rec := jobstore.Record{ID: fmt.Sprintf("probe-%d", k), Kind: o.job.Kind, State: o.job.State,
			Experiments: o.job.Experiments, Fingerprint: o.job.Fingerprint,
			Done: o.job.Done, Total: o.job.Total, Created: o.job.CreatedAt}
		if o.job.Query != nil {
			rec.Spec = mustJSON(o.job.Query)
		}
		if len(o.job.QueryResults) > 0 {
			rec.Results = mustJSON(o.job.QueryResults)
		} else if len(o.job.Results) > 0 {
			rec.Results = mustJSON(o.job.Results)
		}
		t.tr.call(probePutOp+k, 0, "jobstore.put", func() { err = journal.Put(rec) })
		if err != nil {
			return err
		}
		puts++
	}

	// Experiments batches as cold-sweep submits them, fresh seeds each.
	for k := 0; k < 3; k++ {
		o := coldExpJob(mix(t.seed, 0x70726f6265, uint64(k)))
		p := params
		p.Seed = o.ExpSeed
		runner := experiments.NewWithCache(p, cache)
		t.tr.call(probeExpOp+k, 0, "experiments.run", func() { _, err = runner.RunMany(o.Experiments, 0) })
		if err != nil {
			return err
		}
	}
	return nil
}

// pitchLaw returns the pitch law of a spec's pitch mean the way the query
// session resolves it: the calibrated law by default, else a truncated
// normal with that mean and the calibrated σ/µ.
func pitchLaw(meanNM float64) (dist.TruncNormal, error) {
	if meanNM == 0 {
		return device.CalibratedPitch()
	}
	return dist.TruncNormalWithMean(meanNM, device.PitchSigmaRatio*meanNM, device.PitchMinNM)
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// probeRare times the Monte Carlo layers on rare-row's generated
// estimates: the round kernel at a fixed round count, then each estimate
// through rareevent with its method, target, cap and seed.
func (t *tracedRun) probeRare(n int) error {
	sess, err := query.NewSession(query.Options{Params: experiments.DefaultParams()})
	if err != nil {
		return err
	}
	worst, _, err := query.ResolveCorner("worst")
	if err != nil {
		return err
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	rowModel := func(w float64) (*rowyield.RowModel, error) {
		return sess.Runner().RowModelAtPitch(w, worst, nil)
	}
	for k, w := range []float64{rareWidths[0], rareWidths[len(rareWidths)/2], rareWidths[len(rareWidths)-1]} {
		rm, err := rowModel(w)
		if err != nil {
			return err
		}
		t.tr.call(probeRoundsOp+k, 0, "montecarlo.rounds", func() {
			_, err = rm.EstimateRowFailureWith(rowyield.DirectionalUnaligned, mcProbeRounds,
				montecarlo.Options{Seed: mix(t.seed, 0x6d63, uint64(k)) | 1})
		})
		if err != nil {
			return err
		}
	}

	var rounds []float64
	estimates, capped, offRef := 0, 0, 0
	for i := 0; estimates < n; i++ {
		o := rareRow.gen(t.seed, 0, i)
		if !o.isEstimate() {
			continue
		}
		spec := o.Spec
		method, err := rareevent.ParseMethod(spec.MCMethod)
		if err != nil {
			return err
		}
		rm, err := rowModel(spec.WidthNM)
		if err != nil {
			return err
		}
		var est rareevent.Estimate
		t.tr.call(probeEstimateOp+i, 0, "rareevent.estimate."+spec.MCMethod, func() {
			est, err = rareevent.EstimateRowFailureContext(context.Background(), rm, rowyield.DirectionalUnaligned,
				rareevent.Options{Method: method, RelErrTarget: spec.RelErrTarget, MaxRounds: spec.Rounds, Seed: spec.Seed})
		})
		if err != nil {
			return err
		}
		rounds = append(rounds, float64(est.Rounds))
		p, ok := ref.at(spec.WidthNM)
		if !ok {
			return fmt.Errorf("no reference at %g nm", spec.WidthNM)
		}
		c, off := judgeEstimate(est.Mean, est.StdErr, spec.RelErrTarget, p)
		estimates++
		if c {
			capped++
		}
		if off {
			offRef++
		}
	}
	t.m["rareevent.rounds_per_query"] = median(rounds)
	t.m["rareevent.capped_share"] = float64(capped) / float64(estimates)
	t.m["rareevent.off_reference_share"] = float64(offRef) / float64(estimates)
	return nil
}

// spanMetrics derives every per-layer timing from the recorded spans: a
// leaf call's self time, or the duration of a span that stands for a whole
// unit of work (a sweep, a job's wait or run). The warm handler's edge
// cost is its span's duration minus the same operation's evaluation.
func (t *tracedRun) spanMetrics() {
	spans := t.tr.snapshot()
	self := selfTimes(spans)
	selfMedian := func(name string) float64 { return median(selfByName(spans, self, name)) }
	durMedian := func(name string) float64 { return median(values(durationsByOp(spans, name))) }

	serve, eval := durationsByOp(spans, "server.serve_http"), durationsByOp(spans, "query.evaluate")
	var edge []float64
	for op, d := range eval {
		edge = append(edge, serve[op]-d)
	}
	t.m["server.edge_self_us"] = median(edge) / 1e3
	t.m["server.revalidate_us"] = selfMedian("server.revalidate") / 1e3
	t.m["server.encode_us"] = selfMedian("server.encode") / 1e3
	t.m["query.evaluate_us"] = median(values(eval)) / 1e3
	t.m["query.canonical_us"] = selfMedian("query.canonical") / 1e3
	t.m["query.model_lookup_us"] = selfMedian("query.model_lookup") / 1e3
	t.m["device.pf_eval_us"] = selfMedian("device.pf_eval") / 1e3

	t.m["renewal.sweep_ms"] = ms(durMedian("renewal.sweep"))
	t.m["sweepstore.persist_ms"] = ms(selfMedian("sweepstore.persist"))
	t.m["jobs.queue_wait_ms"] = ms(durMedian("jobs.queue_wait"))
	t.m["jobs.run_ms"] = ms(durMedian("jobs.run"))
	t.m["jobstore.put_ms"] = ms(selfMedian("jobstore.put"))
	t.m["experiments.run_ms"] = ms(selfMedian("experiments.run"))

	t.m["montecarlo.round_ns"] = selfMedian("montecarlo.rounds") / mcProbeRounds
	for _, m := range rareMethods {
		t.m["rareevent.estimate_ms."+m] = ms(selfMedian("rareevent.estimate." + m))
	}
}

// values returns a map's values.
func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
