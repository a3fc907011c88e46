// Command perfbench is yieldlab's end-to-end and per-layer benchmark.
//
// Untraced (-trace 0) it launches the real yieldserver binary with default
// flags, drives one seeded closed-loop workload over loopback for the
// given number of seconds, checks every answer against an in-process
// evaluation, and prints the end-to-end metrics. Traced (-trace 1) it
// replays the same generated inputs in-process, times the calls into each
// layer's public functions, and prints the per-layer metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// See README.md in this directory for the workloads and metrics, and
// run.sh for the build-and-run wrapper.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many times a run launches the server and warms it up;
// setup_s is the median, and only the last server is timed. With three,
// warm-pf's setup_s spread 0.28–0.36 (interquartile range over median)
// across seeds.
const setups = 5

func main() {
	var (
		name    = flag.String("workload", "", "workload: warm-pf, cold-sweep or rare-row")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 = traced in-process run printing per-layer metrics")
		bin     = flag.String("server", "", "yieldserver binary (untraced runs)")
		out     = flag.String("out", ".bench_build/perfbench", "directory for run files (spans, logs, stores)")
		genRef  = flag.String("gen-reference", "", "write the rowyield reference set to this file and exit")
	)
	flag.Parse()
	if *genRef != "" {
		if err := genReference(*genRef); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have warm-pf, cold-sweep, rare-row)", *name))
	}
	if *seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	dir, err := os.MkdirTemp(mkdirAll(*out), w.name+"-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	d := time.Duration(*seconds * float64(time.Second))
	var rep report
	if *trace == 1 {
		rep, err = runTraced(w, *seed, d, dir, *out)
	} else {
		if *bin == "" {
			fatal(errors.New("-server is required for an untraced run"))
		}
		rep, err = runUntraced(w, *seed, d, *bin, dir, *out)
	}
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func mkdirAll(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

// runUntraced measures one workload end to end against the real server.
func runUntraced(w *workload, seed uint64, d time.Duration, bin, dir, out string) (report, error) {
	host := newHostRecord(w.name, seed, false)
	prefill := ""
	if w.store {
		var err error
		if prefill, err = ensurePrefill(out, host.SourceDigest); err != nil {
			return report{}, err
		}
	}

	// Set-up: launch and warm the server several times; keep the last.
	var (
		srv    *serverProc
		c      *client
		setupS []float64
	)
	for k := 0; k < setups; k++ {
		sdir := filepath.Join(dir, fmt.Sprintf("server-%d", k))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return report{}, err
		}
		t0 := time.Now()
		p, err := launch(bin, sdir, prefill)
		if err != nil {
			return report{}, err
		}
		cl := newClient(p.base, map[int]string{})
		err = warmUp(cl, w.warm(seed))
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil {
			p.stop()
			return report{}, err
		}
		if k < setups-1 {
			cl.close()
			p.stop()
			_ = os.RemoveAll(sdir)
			continue
		}
		srv, c = p, cl
	}
	defer srv.stop()
	defer c.close()

	before, err := c.stats()
	if err != nil {
		return report{}, err
	}
	if w.store {
		if err := checkPrefilled(before); err != nil {
			return report{}, err
		}
	}
	cpu0, err := srv.cpu()
	if err != nil {
		return report{}, err
	}
	outcomes, elapsed := drive(w, seed, srv.base, c.etags, d)
	cpu1, err := srv.cpu()
	if err != nil {
		return report{}, err
	}
	after, err := c.stats()
	if err != nil {
		return report{}, err
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return report{}, err
	}
	host.Crossover = srv.crossover()
	c.close()
	srv.stop()
	_ = os.RemoveAll(dir) // the store can be large; checking needs none of it

	verdicts, err := checkAll(w, outcomes, c.etags)
	if err != nil {
		return report{}, err
	}
	s := summarize(outcomes, verdicts)

	m := map[string]metric{
		"setup_s":        {median(setupS), "s"},
		"ops_per_s":      {float64(s.served) / elapsed.Seconds(), "1/s"},
		"success_share":  {float64(s.succeeded) / float64(len(outcomes)), "share"},
		"cpu_ms_per_op":  {float64(cpu1-cpu0) / float64(time.Millisecond) / float64(max(s.served, 1)), "ms"},
		"peak_rss_mb":    {rss, "MiB"},
		"latency_p50_ms": {s.latencyAt(50, elapsed), "ms"},
	}
	tailPct, beyond := tailPercentile(len(s.sync))
	m["latency_tail_ms"] = metric{s.latencyAt(tailPct, elapsed), "ms"}
	m["job_turnaround_p50_ms"] = metric{ms(percentileOr(s.jobs, 50, elapsed)), "ms"}

	fmt.Printf("perfbench %s seed=%d seconds=%.0f (untraced, %d connections, real yieldserver)\n",
		w.name, seed, d.Seconds(), w.conns)
	printHost(host)
	fmt.Printf("set-up times: %s s\n", joinFloats(setupS, "%.4f"))
	s.print(len(outcomes))
	fmt.Printf("latency_tail_ms is p%g: %d of %d sync samples lie beyond it\n", tailPct, beyond, len(s.sync))
	fmt.Printf("job turnarounds: %d\n", len(s.jobs))
	fmt.Printf("server counters over the timed phase: %s\n", statsDelta(before, after))
	printMetrics(m)
	return report{Correct: s.wrong == 0, Attempted: len(outcomes), Failed: s.failed, Metrics: m}, nil
}

// summary folds outcomes and verdicts into counts and latency samples.
type summary struct {
	served, succeeded, failed, wrong, misses int
	compared, identical                      int
	drift                                    float64
	estimates, capped, offRef                int
	sync, jobs                               []float64 // sorted; +Inf = not served
	firstWrong                               string
}

func summarize(outcomes []outcome, verdicts []verdict) summary {
	var s summary
	steps := map[[2]int]float64{} // (conn, step) → summed latency
	for i := range outcomes {
		o, v := &outcomes[i], verdicts[i]
		lat := float64(o.latency)
		if o.served() {
			s.served++
		} else {
			lat = math.Inf(1) // an unserved op misses every latency limit
			s.failed++
			if s.firstWrong == "" {
				s.firstWrong = fmt.Sprintf("%s %s: status %d: %v %s", o.op.Method, o.op.Path, o.status, o.err, firstLine(o.body))
			}
		}
		switch {
		case o.op.isJob():
			s.jobs = append(s.jobs, lat)
		case o.op.Step > 0:
			steps[[2]int{o.conn, o.op.Step}] += lat
		default:
			s.sync = append(s.sync, lat)
		}
		if v.wrong {
			s.wrong++
			s.failed++
			if s.firstWrong == "" {
				s.firstWrong = fmt.Sprintf("%s %s: %s", o.op.Method, o.op.Path, v.why)
			}
		}
		s.drift = math.Max(s.drift, v.drift)
		if v.compared {
			s.compared++
			if v.identical {
				s.identical++
			}
		}
		if v.estimate {
			s.estimates++
			if v.capped {
				s.capped++
			}
			if v.offRef {
				s.offRef++
			}
		}
		if v.miss() {
			s.misses++
		}
		if o.served() && !v.wrong && !v.miss() {
			s.succeeded++
		}
	}
	for _, lat := range steps {
		s.sync = append(s.sync, lat)
	}
	sort.Float64s(s.sync)
	sort.Float64s(s.jobs)
	return s
}

// latencyAt returns the sync latency percentile in ms. A percentile that
// lands on an unserved op is reported as the whole phase: the op waited at
// least that long without an answer.
func (s summary) latencyAt(pct float64, phase time.Duration) float64 {
	return ms(percentileOr(s.sync, pct, phase))
}

// percentileOr returns the percentile of sorted nanosecond samples, or
// the phase length where the samples are missing or unserved.
func percentileOr(sorted []float64, pct float64, phase time.Duration) float64 {
	v := percentile(sorted, pct)
	if math.IsNaN(v) || math.IsInf(v, 1) {
		return float64(phase)
	}
	return v
}

func ms(ns float64) float64 { return ns / 1e6 }

func (s summary) print(attempted int) {
	fmt.Printf("ops attempted=%d succeeded=%d failed=%d (unserved or wrong=%d, wrong answers=%d, estimator misses=%d)\n",
		attempted, s.succeeded, attempted-s.succeeded, s.failed, s.wrong, s.misses)
	fmt.Printf("failed_share=%.4f (= 1 - success_share; includes estimator misses)\n",
		1-float64(s.succeeded)/float64(max(attempted, 1)))
	if s.firstWrong != "" {
		fmt.Printf("first failure: %s\n", s.firstWrong)
	}
	if s.compared > 0 {
		fmt.Printf("query.byte_identical_share=%.4f (%d of %d answers compared in-process; largest relative drift %.3g, tolerance %g)\n",
			float64(s.identical)/float64(s.compared), s.identical, s.compared, s.drift, relTol)
	}
	if s.estimates > 0 {
		fmt.Printf("estimates=%d capped=%d (%.3f) off_reference=%d (%.3f)\n", s.estimates,
			s.capped, float64(s.capped)/float64(s.estimates), s.offRef, float64(s.offRef)/float64(s.estimates))
	}
}

func printHost(h hostRecord) {
	b, _ := json.Marshal(h)
	fmt.Printf("host %s\n", b)
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func joinFloats(v []float64, format string) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
