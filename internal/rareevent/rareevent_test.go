package rareevent

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/montecarlo"
	"github.com/cnfet/yieldlab/internal/rowyield"
)

// probeModel is the deep-tail reference fixture used throughout this
// package's statistical gates: the paper's worst process corner
// (pf = 0.531), fourteen equiprobable 20 nm gate offsets, and a 200 um
// correlated CNT span. Row-failure probability drops roughly a decade
// per 15.8 nm of width, so the fixture reaches ~1.9e-7 at W = 142.7 nm,
// ~1.3e-10 at W = 200 nm and ~1.9e-14 at W = 270 nm. All gates below
// run on fixed seeds, so they are deterministic, not flaky; tolerances
// still leave 3-sigma-style margin so reruns under a reseeded fixture
// would pass too.
func probeModel(t testing.TB, width float64) *rowyield.RowModel {
	t.Helper()
	pitch, err := device.CalibratedPitch()
	if err != nil {
		t.Fatal(err)
	}
	offs := make([]float64, 14)
	probs := make([]float64, 14)
	for i := range offs {
		offs[i], probs[i] = float64(i)*20, 1
	}
	od, err := rowyield.NewOffsetDist(offs, probs)
	if err != nil {
		t.Fatal(err)
	}
	m := &rowyield.RowModel{
		Pitch:         pitch,
		PerCNTFailure: 0.531,
		WidthNM:       width,
		LCNTNM:        200_000,
		DensityPerUM:  1.8,
		Offsets:       od,
	}
	if err := m.Prepare(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseMethod(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Method
	}{
		{"plain", Plain}, {"tilted", Tilted},
		{"splitting", Splitting}, {"auto", Auto},
	} {
		got, err := ParseMethod(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseMethod(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if got.String() != tc.in {
			t.Fatalf("Method round-trip: %q -> %v -> %q", tc.in, got, got.String())
		}
	}
	for _, bad := range []string{"", "importance"} {
		if _, err := ParseMethod(bad); err == nil {
			t.Fatalf("ParseMethod(%q) accepted", bad)
		}
	}
}

func TestZeroPFShortCircuits(t *testing.T) {
	m := probeModel(t, 142.7)
	m.PerCNTFailure = 0
	if err := m.Prepare(); err != nil {
		t.Fatal(err)
	}
	for _, method := range []Method{Plain, Tilted, Splitting, Auto} {
		est, err := EstimateRowFailureContext(context.Background(), m, rowyield.DirectionalUnaligned, Options{Method: method})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if est.Mean != 0 || est.StdErr != 0 || est.Rounds != 0 {
			t.Fatalf("%v: pf=0 should be an exact zero estimate, got %+v", method, est)
		}
	}
}

func TestUncorrelatedRejectsRareEventMethods(t *testing.T) {
	m := probeModel(t, 142.7)
	if _, err := EstimateRowFailureContext(context.Background(), m, rowyield.UncorrelatedGrowth, Options{Method: Tilted}); err == nil {
		t.Fatal("tilted estimator accepted the uncorrelated scenario")
	}
	if _, err := EstimateRowFailureContext(context.Background(), m, rowyield.UncorrelatedGrowth, Options{Method: Splitting}); err == nil {
		t.Fatal("splitting estimator accepted the uncorrelated scenario")
	}
}

// TestTiltedMatchesPlain cross-validates the importance sampler against
// plain Monte Carlo at a depth (~1.9e-7) where plain MC still converges
// honestly, requiring agreement within 3 combined standard errors.
func TestTiltedMatchesPlain(t *testing.T) {
	m := probeModel(t, 142.7)
	plain, err := EstimateRowFailureContext(context.Background(), m, rowyield.DirectionalUnaligned, Options{
		Method: Plain, RelErrTarget: 0.05, MaxRounds: 1 << 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	tilt, err := EstimateRowFailureContext(context.Background(), m, rowyield.DirectionalUnaligned, Options{
		Method: Tilted, RelErrTarget: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	sigma := math.Hypot(plain.StdErr, tilt.StdErr)
	if diff := math.Abs(plain.Mean - tilt.Mean); diff > 3*sigma {
		t.Fatalf("tilted %.4g vs plain %.4g differ by %.4g > 3*sigma %.4g",
			tilt.Mean, plain.Mean, diff, 3*sigma)
	}
}

// TestDeepTailAcceptance is the headline acceptance gate: a ~1.9e-14
// row-failure probability estimated to <=10% relative standard error.
// Plain Monte Carlo would need ~5e15 indicator rounds for the same
// precision; the tilted estimator gets there in about a million.
func TestDeepTailAcceptance(t *testing.T) {
	m := probeModel(t, 270)
	est, err := EstimateRowFailureContext(context.Background(), m, rowyield.DirectionalUnaligned, Options{
		Method: Tilted, RelErrTarget: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean <= 0 {
		t.Fatalf("deep-tail estimate collapsed to %g", est.Mean)
	}
	if rel := est.RelErr(); rel > 0.1 {
		t.Fatalf("relative error %.3f missed the 0.1 target in %d rounds", rel, est.Rounds)
	}
	// Reference anchor 1.9e-14 (tilted, ~2% rel err, stable across
	// seeds 0, 12345, 999: 1.90/1.88/1.96e-14). Half a decade of slack
	// on either side is far beyond any plausible statistical excursion.
	if lg := math.Log10(est.Mean); lg < -14.5 || lg > -13.5 {
		t.Fatalf("deep-tail estimate %.4g outside [1e-14.5, 1e-13.5]", est.Mean)
	}
}

// TestSplittingAgreesWithTilted checks the multilevel-splitting fallback
// against the tilted reference at ~1.9e-7. Splitting replicas are
// heavy-tailed (the empirical relative error underestimates until the
// rare large replicas land), so the gate is a log-ratio band rather
// than a sigma test: the two estimators must agree within half a
// decade. Measured at this budget: ratio ~1.4.
func TestSplittingAgreesWithTilted(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second splitting run")
	}
	m := probeModel(t, 142.7)
	tilt, err := EstimateRowFailureContext(context.Background(), m, rowyield.DirectionalUnaligned, Options{
		Method: Tilted, RelErrTarget: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	split, err := EstimateRowFailureContext(context.Background(), m, rowyield.DirectionalUnaligned, Options{
		Method: Splitting, Population: 256, Moves: 8,
		MaxRounds: 256 * splitLevelGuess * 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	if split.Mean <= 0 {
		t.Fatalf("splitting collapsed to %g (levels=%d replicas=%d)",
			split.Mean, split.Levels, split.Replicas)
	}
	if ratio := split.Mean / tilt.Mean; ratio < 1.0/3 || ratio > 3 {
		t.Fatalf("splitting %.4g vs tilted %.4g: ratio %.2f outside [1/3, 3]",
			split.Mean, tilt.Mean, ratio)
	}
	if split.Levels < 2 {
		t.Fatalf("splitting built only %d severity levels; the ladder never engaged", split.Levels)
	}
}

// TestDeterministicAcrossWorkers pins the batch-order-merge contract:
// every estimator returns a bit-identical Estimate regardless of the
// worker count, because block seeds and merge order are derived from
// the options, not the scheduler.
func TestDeterministicAcrossWorkers(t *testing.T) {
	runs := []struct {
		name  string
		width float64
		opt   Options
	}{
		{"tilted", 142.7, Options{Method: Tilted, RelErrTarget: 0.1}},
		{"splitting", 142.7, Options{Method: Splitting, Population: 128, Moves: 4,
			MaxRounds: 128 * splitLevelGuess * 16}},
		{"auto", 80, Options{Method: Auto, RelErrTarget: 0.1}},
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			m := probeModel(t, tc.width)
			estimate := func(workers int) Estimate {
				opt := tc.opt
				opt.Workers = workers
				est, err := EstimateRowFailureContext(context.Background(), m, rowyield.DirectionalUnaligned, opt)
				if err != nil {
					t.Fatal(err)
				}
				return est
			}
			ref := estimate(1)
			for _, workers := range []int{4, 8} {
				if got := estimate(workers); got != ref {
					t.Fatalf("workers=%d: %+v differs from single-worker %+v", workers, got, ref)
				}
			}
		})
	}
}

// TestVarianceReductionGate quantifies the speedup at ~1.3e-10. Two
// gates, against two baselines:
//
// An indicator (hit-or-miss) estimator needs 1/(p*relerr^2) rounds to
// reach a target relative error, ~7.6e11 rounds here; the tilted
// sampler must beat that by far more than the issue's 50x bar.
//
// The repo's plain estimator is already conditional (it averages exact
// per-round failure probabilities, not indicators), so the honest
// like-for-like bar is its true relative variance E[p^2]/E[p]^2 - 1,
// measured under the tilted law where the second moment is actually
// reachable. The tilted sampler must cut that by >=5x. (The plain
// estimator's own Welford error bars cannot be trusted at this depth:
// the p-distribution is heavy-tailed and plain MC appears converged
// while biased low; see DESIGN.md section 8.)
func TestVarianceReductionGate(t *testing.T) {
	const target = 0.1
	m := probeModel(t, 200)
	tilt, err := EstimateRowFailureContext(context.Background(), m, rowyield.DirectionalUnaligned, Options{
		Method: Tilted, RelErrTarget: target,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel := tilt.RelErr(); rel > target {
		t.Fatalf("tilted missed the %.2f target: %.3f", target, rel)
	}
	indicatorRounds := 1 / (tilt.Mean * target * target)
	if got := float64(tilt.Rounds); got > indicatorRounds/50 {
		t.Fatalf("tilted used %.3g rounds; indicator baseline %.3g gives ratio %.1f < 50",
			got, indicatorRounds, indicatorRounds/got)
	}

	// Like-for-like relative variances via the tilted second moment.
	tm, err := m.Tilted(tilt.Theta)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 1 << 16
	e2, err := montecarlo.RunState(rounds, tm.NewRoundState,
		func(r *rand.Rand, st *rowyield.RoundState) (float64, error) {
			_, p2w, err := tm.Moments(r, rowyield.DirectionalUnaligned, st)
			return p2w, err
		}, montecarlo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	relvarTilted := tilt.RelErr() * tilt.RelErr() * float64(tilt.Rounds)
	relvarPlain := e2.Mean/(tilt.Mean*tilt.Mean) - 1
	if ratio := relvarPlain / relvarTilted; ratio < 5 {
		t.Fatalf("tilted relvar %.3g vs plain relvar %.3g: reduction %.1fx < 5x",
			relvarTilted, relvarPlain, ratio)
	}
}

// TestAutoSelection checks that auto picks plain where the conditional
// estimator is genuinely efficient (shallow tail) and switches to
// tilting in the deep tail where plain MC only appears converged.
func TestAutoSelection(t *testing.T) {
	for _, tc := range []struct {
		width float64
		want  Method
	}{
		{80, Plain},
		{270, Tilted},
	} {
		m := probeModel(t, tc.width)
		est, err := EstimateRowFailureContext(context.Background(), m, rowyield.DirectionalUnaligned, Options{
			Method: Auto, RelErrTarget: 0.1,
		})
		if err != nil {
			t.Fatalf("w=%g: %v", tc.width, err)
		}
		if est.Method != tc.want {
			t.Fatalf("w=%g: auto selected %v, want %v", tc.width, est.Method, tc.want)
		}
		if est.Mean <= 0 {
			t.Fatalf("w=%g: auto estimate collapsed to %g", tc.width, est.Mean)
		}
	}
}
