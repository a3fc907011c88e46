package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"

	"github.com/cnfet/yieldlab/internal/experiments"
	"github.com/cnfet/yieldlab/internal/query"
	"github.com/cnfet/yieldlab/internal/server"
)

// relTol is the numeric tolerance of the correctness check: every number
// in an answer must agree with the in-process evaluation of the same spec
// to this relative difference. It admits the last-bits drift that a
// different FFT/direct kernel choice causes (the server calibrates its
// crossover at start, the checker keeps the library default) and nothing
// larger; byte identity is reported separately.
const relTol = 1e-6

// absTol is the absolute part of the tolerance: the renewal engine's pF
// has a floor of cancellation noise near 3e-14 (DESIGN.md §8), so two
// values that both sit that low agree whatever their ratio.
const absTol = 1e-13

// refSigmas is how many combined standard errors an estimate may sit from
// the committed plain-DP reference before it counts as off-reference.
const refSigmas = 4

// verdict is the checker's judgement of one outcome.
type verdict struct {
	wrong     bool    // a deterministic answer disagrees, or an answer is malformed
	why       string  // the first disagreement, for the report
	compared  bool    // an in-process answer existed to compare bytes with
	identical bool    // the answer's bytes equal the in-process answer's
	drift     float64 // largest relative difference of any number compared

	// Estimator quality of a row-failure estimate (never counted in wrong:
	// a miss is a property of the estimator, not a malformed answer).
	estimate bool
	capped   bool // the round cap ended the run above the rel-err target
	offRef   bool // converged, but off the reference by > refSigmas
}

// miss reports whether an estimate missed its target or the reference.
func (v verdict) miss() bool { return v.capped || v.offRef }

// checker evaluates the in-process answer of every spec through its own
// query.Session: an independent evaluation path with its own caches,
// built from the library defaults the server also starts from.
type checker struct {
	sess *query.Session
	ref  referenceSet
	memo map[string]query.Result // warm answers by canonical fingerprint
}

func newChecker(cacheEntries int) (*checker, error) {
	sess, err := query.NewSession(query.Options{Params: experiments.DefaultParams()})
	if err != nil {
		return nil, err
	}
	if cacheEntries > 0 {
		// Cold workloads visit a law once; a small bound keeps the
		// checker's memory flat across a run.
		sess.Cache().SetMaxEntries(cacheEntries)
	}
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	return &checker{sess: sess, ref: ref, memo: make(map[string]query.Result)}, nil
}

// evaluate returns the in-process result of a concrete spec, memoized by
// fingerprint so a warm workload's repeated keys evaluate once.
func (c *checker) evaluate(spec query.Spec) (query.Result, error) {
	_, fp, err := spec.Canonical()
	if err != nil {
		return query.Result{}, err
	}
	if r, ok := c.memo[fp]; ok {
		return r, nil
	}
	r, err := c.sess.Evaluate(context.Background(), spec)
	if err != nil {
		return query.Result{}, err
	}
	if spec.Sweep == nil && spec.Kind != query.KindExperiment && spec.PitchMeanNM == 0 && spec.GridStepNM == 0 {
		c.memo[fp] = r
	}
	return r, nil
}

// indentJSON encodes v the way the server writes every response body.
func indentJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return buf.Bytes()
}

// check judges one served outcome.
func (c *checker) check(o *outcome, etags map[int]string) verdict {
	op := &o.op
	switch {
	case op.Kind == kindReval:
		if want := etags[op.Key]; o.etag != want {
			return verdict{wrong: true, why: fmt.Sprintf("304 with ETag %s, want %s", o.etag, want)}
		}
		return verdict{}
	case op.isEstimate():
		return c.checkEstimate(o)
	}
	want, err := c.expected(op)
	if err != nil {
		return verdict{wrong: true, why: "in-process evaluation: " + err.Error()}
	}
	got := o.body
	if op.isJob() {
		// Job records carry timestamps; compare the result payload only,
		// re-encoded compactly (floats round-trip exactly through JSON).
		switch op.Kind {
		case kindQueryJob:
			got = mustJSON(o.job.QueryResults)
		case kindExpJob:
			got = mustJSON(o.job.Results)
		}
	}
	return compareAnswer(got, want)
}

// expected returns the bytes the op's answer should have.
func (c *checker) expected(op *op) ([]byte, error) {
	switch op.Kind {
	case kindPF:
		r, err := c.evaluate(*op.Spec)
		if err != nil {
			return nil, err
		}
		return indentJSON(r.PF), nil
	case kindBatch:
		out := make([]server.PFJSON, len(op.Points))
		for i, p := range op.Points {
			r, err := c.evaluate(query.Spec{Kind: query.KindPF, Corner: p.Corner, WidthNM: p.WidthNM})
			if err != nil {
				return nil, err
			}
			out[i] = *r.PF
		}
		return indentJSON(map[string]any{"results": out}), nil
	case kindQuery, kindQueryJob:
		canon, fp, err := op.Spec.Canonical()
		if err != nil {
			return nil, err
		}
		var results []query.Result
		if canon.Sweep == nil {
			r, err := c.evaluate(canon)
			if err != nil {
				return nil, err
			}
			results = []query.Result{r}
		} else if results, err = c.sess.EvaluateAll(context.Background(), canon); err != nil {
			return nil, err
		}
		if op.Kind == kindQueryJob {
			return mustJSON(results), nil
		}
		return indentJSON(server.QueryResponseJSON{Fingerprint: fp, Count: len(results), Results: results}), nil
	case kindExpJob:
		r, err := c.sess.Evaluate(context.Background(), query.Spec{
			Kind: query.KindExperiment, Experiments: op.Experiments, Seed: op.ExpSeed})
		if err != nil {
			return nil, err
		}
		return mustJSON(r.Experiments), nil
	}
	return nil, fmt.Errorf("no expectation for %s", op.Kind)
}

// compareAnswer compares an answer with the in-process one: byte identity
// first, then number by number within relTol and absTol.
func compareAnswer(got, want []byte) verdict {
	if bytes.Equal(got, want) {
		return verdict{compared: true, identical: true}
	}
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		return verdict{compared: true, wrong: true, why: "undecodable answer: " + err.Error()}
	}
	if err := json.Unmarshal(want, &w); err != nil {
		return verdict{compared: true, wrong: true, why: "undecodable expectation: " + err.Error()}
	}
	v := verdict{compared: true}
	if err := sameJSON(g, w, "$", &v.drift); err != nil {
		v.wrong, v.why = true, err.Error()
	}
	return v
}

// sameJSON reports the first place two decoded JSON values differ beyond
// the numeric tolerance, raising *drift to the largest relative difference
// seen on the way.
func sameJSON(got, want any, path string, drift *float64) error {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return fmt.Errorf("%s: got %T, want object", path, got)
		}
		keys := make([]string, 0, len(w))
		for k := range w {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			gv, ok := g[k]
			if !ok {
				return fmt.Errorf("%s.%s: missing", path, k)
			}
			if err := sameJSON(gv, w[k], path+"."+k, drift); err != nil {
				return err
			}
		}
		if len(g) != len(w) {
			return fmt.Errorf("%s: %d keys, want %d", path, len(g), len(w))
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return fmt.Errorf("%s: got %v, want array of %d", path, got, len(w))
		}
		for i := range w {
			if err := sameJSON(g[i], w[i], fmt.Sprintf("%s[%d]", path, i), drift); err != nil {
				return err
			}
		}
	case float64:
		g, ok := got.(float64)
		if !ok {
			return fmt.Errorf("%s: got %v, want %v", path, got, w)
		}
		if g == w {
			return nil
		}
		diff := math.Abs(g - w)
		rel := diff / math.Max(math.Abs(g), math.Abs(w))
		*drift = math.Max(*drift, rel)
		if diff > relTol*math.Max(math.Abs(g), math.Abs(w))+absTol {
			return fmt.Errorf("%s: got %v, want %v (rel diff %.3g)", path, g, w, rel)
		}
	default:
		if got != want {
			return fmt.Errorf("%s: got %v, want %v", path, got, want)
		}
	}
	return nil
}

// checkEstimate judges a row-failure estimate: well-formed and for the
// asked spec (a hard check), then against its rel-err target and the
// committed plain-DP reference (estimator quality).
func (c *checker) checkEstimate(o *outcome) verdict {
	spec := o.op.Spec
	var resp server.QueryResponseJSON
	if err := json.Unmarshal(o.body, &resp); err != nil {
		return verdict{wrong: true, why: "undecodable estimate: " + err.Error()}
	}
	_, fp, err := spec.Canonical()
	if err != nil {
		return verdict{wrong: true, why: err.Error()}
	}
	if resp.Fingerprint != fp || len(resp.Results) != 1 || resp.Results[0].RowYield == nil {
		return verdict{wrong: true, why: fmt.Sprintf("estimate answer for %s is not a single rowyield result for %s", resp.Fingerprint, fp)}
	}
	r := resp.Results[0].RowYield
	v := verdict{estimate: true}
	if err := estimateWellFormed(spec, r); err != nil {
		v.wrong, v.why = true, err.Error()
		return v
	}
	ref, ok := c.ref.at(spec.WidthNM)
	if !ok {
		v.wrong, v.why = true, fmt.Sprintf("no reference at %g nm", spec.WidthNM)
		return v
	}
	v.capped, v.offRef = judgeEstimate(r.PRF, r.StdErr, spec.RelErrTarget, ref)
	return v
}

// estimateWellFormed checks what any correct estimator answer satisfies.
func estimateWellFormed(spec *query.Spec, r *query.RowYieldResult) error {
	switch {
	case r.Scenario != spec.Scenario || r.WidthNM != spec.WidthNM:
		return fmt.Errorf("estimate for %s at %g nm, asked %s at %g nm", r.Scenario, r.WidthNM, spec.Scenario, spec.WidthNM)
	case !(r.PRF >= 0 && r.PRF <= 1) || !(r.StdErr >= 0) || math.IsInf(r.StdErr, 0):
		return fmt.Errorf("estimate %g ± %g is not a probability", r.PRF, r.StdErr)
	case r.Rounds < 1:
		return fmt.Errorf("estimate claims %d rounds", r.Rounds)
	case spec.MCMethod != "auto" && r.MCMethod != spec.MCMethod && !(spec.MCMethod == "tilted" && r.MCMethod == "plain"):
		// Tilted falls back to plain rounds when no useful tilt exists.
		return fmt.Errorf("estimate ran %s, asked %s", r.MCMethod, spec.MCMethod)
	}
	return nil
}

// judgeEstimate classifies an estimate against its target and reference:
// capped when it ended above the rel-err target (or at zero), off the
// reference when it converged but sits more than refSigmas combined
// standard errors away.
func judgeEstimate(mean, stdErr, target float64, ref referencePoint) (capped, offRef bool) {
	if !(mean > 0) || stdErr/mean > target {
		return true, false
	}
	sigma := math.Hypot(stdErr, ref.StdErr)
	return false, math.Abs(mean-ref.PRF) > refSigmas*sigma
}

// --- the committed reference --------------------------------------------------

//go:embed testdata/rowyield_reference.json
var referenceJSON []byte

// referencePoint is one plain-DP reference estimate.
type referencePoint struct {
	WidthNM float64 `json:"width_nm"`
	PRF     float64 `json:"prf"`
	StdErr  float64 `json:"std_err"`
	Rounds  int     `json:"rounds"`
}

// referenceSet is the committed reference file.
type referenceSet struct {
	Command  string           `json:"command"`
	Corner   string           `json:"corner"`
	Scenario string           `json:"scenario"`
	Seed     uint64           `json:"seed"`
	Points   []referencePoint `json:"points"`
}

func loadReference() (referenceSet, error) {
	var r referenceSet
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return r, fmt.Errorf("reference: %w", err)
	}
	if len(r.Points) == 0 {
		return r, errors.New("reference: no points")
	}
	return r, nil
}

func (r referenceSet) at(width float64) (referencePoint, bool) {
	for _, p := range r.Points {
		if p.WidthNM == width {
			return p, true
		}
	}
	return referencePoint{}, false
}

// Reference generation: plain-DP rounds (the exact per-round row DP,
// unbiased by construction) at a budget large enough that the reference's
// own error is a small part of every comparison.
const (
	refRounds = 1 << 20
	refSeed   = 0x7265666572656e63
)

// genReference computes the reference set and writes it to path.
func genReference(path string) error {
	sess, err := query.NewSession(query.Options{Params: experiments.DefaultParams()})
	if err != nil {
		return err
	}
	set := referenceSet{
		Command:  "cd perfbench && go run . -gen-reference testdata/rowyield_reference.json",
		Corner:   "worst",
		Scenario: "unaligned",
		Seed:     refSeed,
	}
	for _, w := range rareWidths {
		r, err := sess.Evaluate(context.Background(), query.Spec{Kind: query.KindRowYield, Corner: set.Corner,
			Scenario: set.Scenario, WidthNM: w, Rounds: refRounds, Seed: refSeed})
		if err != nil {
			return err
		}
		ry := r.RowYield
		set.Points = append(set.Points, referencePoint{WidthNM: w, PRF: ry.PRF, StdErr: ry.StdErr, Rounds: ry.Rounds})
		fmt.Printf("reference %g nm: %.6g ± %.3g (%d rounds)\n", w, ry.PRF, ry.StdErr, ry.Rounds)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(set); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// checkAll judges every served outcome after the timed phase. Cold
// workloads split the work over two checkers with their own sessions:
// each cold answer costs a full sweep to reproduce.
func checkAll(w *workload, outcomes []outcome, etags map[int]string) ([]verdict, error) {
	parallel, cacheEntries := 1, 0
	if w.store {
		parallel, cacheEntries = 2, 4
	}
	verdicts := make([]verdict, len(outcomes))
	errs := make(chan error, parallel)
	for p := 0; p < parallel; p++ {
		go func() {
			c, err := newChecker(cacheEntries)
			if err == nil {
				for i := p; i < len(outcomes); i += parallel {
					if outcomes[i].served() {
						verdicts[i] = c.check(&outcomes[i], etags)
					}
				}
			}
			errs <- err
		}()
	}
	var first error
	for p := 0; p < parallel; p++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return verdicts, first
}
