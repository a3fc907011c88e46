package main

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/cnfet/yieldlab/internal/query"
	"github.com/cnfet/yieldlab/internal/server"
)

// streamBytes renders a connection's first n operations as bytes, for the
// same-seed/different-seed reproducibility check.
func streamBytes(w *workload, seed uint64, conn, n int) []byte {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		o := w.gen(seed, conn, i)
		fmt.Fprintf(&buf, "%s %s %d\n%s\n", o.Method, o.Path, o.Key, o.Body)
	}
	return buf.Bytes()
}

// The same seed must give a byte-identical request stream, and a different
// seed a different one, on every connection of every workload.
func TestStreamReproducible(t *testing.T) {
	for name, w := range workloads {
		for conn := 0; conn < w.conns; conn++ {
			a := streamBytes(w, 7, conn, 300)
			b := streamBytes(w, 7, conn, 300)
			c := streamBytes(w, 8, conn, 300)
			if !bytes.Equal(a, b) {
				t.Errorf("%s conn %d: seed 7 gave two different streams", name, conn)
			}
			if bytes.Equal(a, c) {
				t.Errorf("%s conn %d: seeds 7 and 8 gave the same stream", name, conn)
			}
		}
	}
}

// Cold-sweep must never revisit a pitch law within a run.
func TestColdLawsUnseen(t *testing.T) {
	seen := map[float64]bool{}
	for n := 0; n < 4000; n++ {
		p := coldPitch(3, n)
		if seen[p] {
			t.Fatalf("law %d repeats pitch %g", n, p)
		}
		seen[p] = true
	}
}

// Rare-row steps run one estimate per method and never straddle a block.
func TestRareStepsCoverMethods(t *testing.T) {
	for block := 0; block < 20; block++ {
		methods := map[string]bool{}
		for pos := 0; pos < 3; pos++ {
			o := rareRow.gen(5, 0, 4*block+pos)
			if o.Step != block+1 || o.Follows != (pos > 0) || !o.isEstimate() {
				t.Fatalf("op %d: step %d follows %v estimate %v", 4*block+pos, o.Step, o.Follows, o.isEstimate())
			}
			methods[o.Spec.MCMethod] = true
		}
		if len(methods) != len(rareMethods) {
			t.Errorf("block %d ran methods %v", block, methods)
		}
		if o := rareRow.gen(5, 0, 4*block+3); !o.isJob() || o.Follows {
			t.Errorf("block %d: fourth op is %s", block, o.Kind)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		beyond int
	}{
		{5, 50, 2},
		{19, 50, 9},
		{20, 50, 10},
		{39, 50, 19},
		{40, 75, 10},
		{99, 75, 24},
		{100, 90, 10},
		{199, 90, 19},
		{200, 95, 10},
		{1000, 95, 50},
		{9999, 95, 499},
		{500000, 95, 25000},
	} {
		pct, beyond := tailPercentile(tc.n)
		if pct != tc.pct || beyond != tc.beyond {
			t.Errorf("tailPercentile(%d) = p%g with %d beyond, want p%g with %d", tc.n, pct, beyond, tc.pct, tc.beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(s, 50); got != 5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	if got := percentile(s, 91); got != 10 {
		t.Errorf("p91 = %g, want 10", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// The checker must flag a perturbed answer, pass an identical one as
// byte-identical, and pass last-bits drift as correct but not identical.
func TestCheckerFlagsPerturbedAnswer(t *testing.T) {
	want := query.PFResult{Corner: "worst", WidthNM: 155, PFCNT: 0.531, PF: 3.1075800452204066e-9}
	wantBytes := indentJSON(want)

	if v := compareAnswer(wantBytes, wantBytes); v.wrong || !v.identical {
		t.Errorf("identical answer judged %+v", v)
	}
	drift := want
	drift.PF *= 1 + 1e-12
	if v := compareAnswer(indentJSON(drift), wantBytes); v.wrong || v.identical {
		t.Errorf("last-bits drift judged %+v", v)
	}
	bad := want
	bad.PF *= 1.01
	if v := compareAnswer(indentJSON(bad), wantBytes); !v.wrong {
		t.Errorf("answer off by 1%% passed: %+v", v)
	}
	floor, floorWant := want, want
	floor.PF, floorWant.PF = 2.9e-14, 2.1e-14 // both at the renewal floor
	if v := compareAnswer(indentJSON(floor), indentJSON(floorWant)); v.wrong {
		t.Errorf("floor-level values judged %+v", v)
	}
	renamed := want
	renamed.Corner = "best"
	if v := compareAnswer(indentJSON(renamed), wantBytes); !v.wrong {
		t.Errorf("answer for another corner passed: %+v", v)
	}
}

// An estimate is judged against its target and the reference.
func TestJudgeEstimate(t *testing.T) {
	ref := referencePoint{WidthNM: 155, PRF: 4.1e-8, StdErr: 4e-10}
	for _, tc := range []struct {
		mean, stdErr   float64
		capped, offRef bool
	}{
		{4.0e-8, 3.2e-9, false, false}, // converged, 0.3σ off
		{1e-9, 5.9e-10, true, false},   // rel err 0.59: the cap ended it
		{0, 0, true, false},            // nothing seen
		{3.0e-8, 2.7e-9, false, true},  // converged, 4.1σ low
	} {
		capped, offRef := judgeEstimate(tc.mean, tc.stdErr, 0.1, ref)
		if capped != tc.capped || offRef != tc.offRef {
			t.Errorf("judgeEstimate(%g ± %g) = capped %v off %v, want %v %v",
				tc.mean, tc.stdErr, capped, offRef, tc.capped, tc.offRef)
		}
	}
	if _, err := loadReference(); err != nil {
		t.Fatal(err)
	}
	set, _ := loadReference()
	for _, w := range rareWidths {
		if _, ok := set.at(w); !ok {
			t.Errorf("no committed reference at %g nm", w)
		}
	}
}

// Self time is a span's duration minus the union of its children.
func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 3 * ms, End: 6 * ms}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: 4 * ms, End: 5 * ms},
		{ID: 5, Parent: 1, Name: "d", Start: 9 * ms, End: 12 * ms}, // runs past root
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 4 * time.Millisecond, 2: 3 * time.Millisecond,
		3: 2 * time.Millisecond, 4: time.Millisecond, 5: 3 * time.Millisecond} {
		if self[id] != want {
			t.Errorf("span %d self time %v, want %v", id, self[id], want)
		}
	}
}

// A cold-sweep server counts only when its cache was warmed from every
// prefill record with none refused.
func TestCheckPrefilled(t *testing.T) {
	whole := func() server.StatsJSON {
		var st server.StatsJSON
		st.Store = &server.StoreStatsJSON{Loads: prefillLaws}
		st.SweepCache.Entries = prefillLaws
		return st
	}
	if err := checkPrefilled(whole()); err != nil {
		t.Errorf("whole prefill refused: %v", err)
	}
	for name, spoil := range map[string]func(*server.StatsJSON){
		"no store":    func(st *server.StatsJSON) { st.Store = nil },
		"quarantined": func(st *server.StatsJSON) { st.Store.Quarantined = 1 },
		"rejected":    func(st *server.StatsJSON) { st.Store.Rejects = 1 },
		"short load":  func(st *server.StatsJSON) { st.Store.Loads = prefillLaws - 1 },
		"empty cache": func(st *server.StatsJSON) { st.SweepCache.Entries = 0 },
	} {
		st := whole()
		spoil(&st)
		if checkPrefilled(st) == nil {
			t.Errorf("%s: prefill accepted", name)
		}
	}
}
