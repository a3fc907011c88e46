package main

import (
	"encoding/json"
	"math"
	"net/url"
	"strconv"

	"github.com/cnfet/yieldlab/internal/query"
	"github.com/cnfet/yieldlab/internal/server"
)

// Operation kinds. Every kind but the two job kinds is one synchronous
// request; a job kind is a submit followed by polls until the job is seen
// in a terminal state.
const (
	kindPF       = "pf"         // GET /v1/pf
	kindReval    = "revalidate" // GET /v1/pf with a matching If-None-Match
	kindQuery    = "query"      // POST /v2/query
	kindBatch    = "batch"      // POST /v1/pf/batch
	kindQueryJob = "query_job"  // POST /v2/query?async=1, then poll
	kindExpJob   = "exp_job"    // POST /v1/experiments, then poll
)

// op is one generated operation: the request the client sends and the
// in-process equivalent the checker evaluates.
type op struct {
	Kind   string
	Method string
	Path   string
	Body   []byte

	// Spec is the query the request stands for (pf, revalidate, query and
	// query-job ops); Key indexes the warm key whose ETag a revalidation
	// sends.
	Spec *query.Spec
	Key  int
	// Points is a batch op's payload.
	Points []server.BatchPointJSON
	// Experiments and ExpSeed describe an experiments job.
	Experiments []string
	ExpSeed     uint64
	// Step groups requests a caller sends back to back as one unit of
	// work (0 = none): its latency is the sum of theirs. Follows marks a
	// request that continues the previous one's step, so a run never
	// stops inside a step.
	Step    int
	Follows bool
}

// isJob reports whether the op is an async job (submit + poll).
func (o *op) isJob() bool { return o.Kind == kindQueryJob || o.Kind == kindExpJob }

// isEstimate reports whether the op is a Monte Carlo row-failure estimate,
// checked against the committed reference instead of an in-process rerun.
func (o *op) isEstimate() bool {
	return o.Spec != nil && o.Spec.Kind == query.KindRowYield && o.Spec.Scenario == "unaligned"
}

// workload is one traffic mix. gen is a pure function of (seed, conn, i):
// the same seed gives every connection the same operation stream no matter
// how the connections interleave.
type workload struct {
	name  string
	conns int
	store bool // run the server with -store on a prefilled directory
	gen   func(seed uint64, conn, i int) op
	// warm lists the set-up requests, sent in order on one connection
	// after the server is healthy; they complete before timing starts.
	warm func(seed uint64) []op
	// replayOps is how many operations per connection the traced run
	// replays in-process (0 = as many as fit in the time budget), and
	// overheadOps how many it replays twice, bare and traced, to measure
	// the tracing overhead.
	replayOps, overheadOps int
}

var workloads = map[string]*workload{
	"warm-pf":    warmPF,
	"cold-sweep": coldSweep,
	"rare-row":   rareRow,
}

// --- seeded randomness --------------------------------------------------------

// mix hashes the seed and coordinates into a well-spread 64-bit value
// (SplitMix64 finalizer), the root of every generated input.
func mix(seed uint64, coords ...uint64) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, c := range coords {
		h ^= c + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h = splitmix(h)
	}
	return splitmix(h)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// pick returns a seeded index in [0, n).
func pick(h uint64, n int) int { return int(h % uint64(n)) }

// perm returns a seeded permutation of [0, n).
func perm(h uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		h = splitmix(h)
		j := int(h % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only benchmark-built values are marshaled
	}
	return b
}

func queryOp(kind string, spec query.Spec) op {
	path := "/v2/query"
	if kind == kindQueryJob {
		path += "?async=1"
	}
	return op{Kind: kind, Method: "POST", Path: path, Body: mustJSON(spec), Spec: &spec}
}

// --- warm-pf ------------------------------------------------------------------

// The warm key space: 3 corners × 4 nodes × 25 widths, all on the default
// grid and the calibrated pitch law, so every key shares one swept table.
var (
	warmCorners = []string{"worst", "mid", "best"}
	warmNodes   = []string{"45nm", "32nm", "22nm", "16nm"}
	warmWidths  = func() []float64 {
		var w []float64
		for x := 60.0; x <= 300; x += 10 {
			w = append(w, x)
		}
		return w
	}()
	warmKeys = len(warmCorners) * len(warmNodes) * len(warmWidths)
	// warmZipf is the cumulative Zipf(s=1.1) distribution over key ranks.
	// The skew is an assumption: no record of real callers' keys exists.
	warmZipf = func() []float64 {
		cdf := make([]float64, warmKeys)
		sum := 0.0
		for r := range cdf {
			sum += 1 / math.Pow(float64(r+1), 1.1)
			cdf[r] = sum
		}
		for r := range cdf {
			cdf[r] /= sum
		}
		return cdf
	}()
)

// warmKeySpec returns warm key k as a pf spec.
func warmKeySpec(k int) query.Spec {
	w := k % len(warmWidths)
	n := (k / len(warmWidths)) % len(warmNodes)
	c := k / (len(warmWidths) * len(warmNodes))
	return query.Spec{Kind: query.KindPF, Corner: warmCorners[c], Node: warmNodes[n], WidthNM: warmWidths[w]}
}

// warmKey draws a Zipf-ranked key; the seed decides which key holds which
// rank.
func warmKey(seed uint64, h uint64) int {
	u := unit(h)
	r := 0
	for r < warmKeys-1 && warmZipf[r] < u {
		r++
	}
	return perm(mix(seed, 0x6b657973), warmKeys)[r]
}

func pfGetOp(kind string, k int) op {
	s := warmKeySpec(k)
	v := url.Values{}
	v.Set("corner", s.Corner)
	v.Set("node", s.Node)
	v.Set("width", strconv.FormatFloat(s.WidthNM, 'g', -1, 64))
	return op{Kind: kind, Method: "GET", Path: "/v1/pf?" + v.Encode(), Spec: &s, Key: k}
}

var warmPF = &workload{
	name:        "warm-pf",
	conns:       2,
	overheadOps: 2500,
	// The shares of the mix are assumptions, not measurements: no log of
	// real callers exists. They keep GET /v1/pf the bulk of the traffic
	// and give every other warm route a few percent: 80% GET /v1/pf, 6%
	// revalidations, 6% single-point /v2/query (a third of them wmin), 6%
	// 8-point batches. The last 2%, async jobs, are there only so the run
	// can report job_turnaround_p50_ms, which every workload must; at 2%
	// they barely move the other figures.
	gen: func(seed uint64, conn, i int) op {
		h := mix(seed, 1, uint64(conn), uint64(i))
		u := unit(h)
		k := warmKey(seed, splitmix(h))
		switch {
		case u < 0.80:
			return pfGetOp(kindPF, k)
		case u < 0.86:
			return pfGetOp(kindReval, k)
		case u < 0.92:
			s := warmKeySpec(k)
			if pick(splitmix(h+1), 3) == 0 {
				s = query.Spec{Kind: query.KindWmin, Corner: s.Corner, Node: s.Node}
			}
			return queryOp(kindQuery, s)
		case u < 0.98:
			pts := make([]server.BatchPointJSON, 8)
			for j := range pts {
				s := warmKeySpec(warmKey(seed, mix(h, uint64(j))))
				pts[j] = server.BatchPointJSON{Corner: s.Corner, WidthNM: s.WidthNM}
			}
			return op{Kind: kindBatch, Method: "POST", Path: "/v1/pf/batch",
				Body: mustJSON(map[string]any{"points": pts}), Points: pts}
		default:
			return queryOp(kindQueryJob, warmKeySpec(k))
		}
	},
	warm: func(seed uint64) []op {
		var ops []op
		for k := 0; k < warmKeys; k++ {
			ops = append(ops, pfGetOp(kindPF, k))
		}
		for _, c := range warmCorners {
			for _, n := range warmNodes {
				ops = append(ops, queryOp(kindQuery, query.Spec{Kind: query.KindWmin, Corner: c, Node: n}))
			}
		}
		return append(ops, queryOp(kindQueryJob, warmKeySpec(0)))
	},
}

// --- cold-sweep ---------------------------------------------------------------

// coldBlock is the fixed composition of every 12 cold-sweep operations of
// one connection, shuffled per block by the seed: sync sweeps dominate, a
// quarter of them on a coarse grid override, and every third op is a job.
// Three of every four jobs are rowyield sweeps, so the turnaround median
// lies among them; the fourth alternates between a noise sweep (about ten
// times dearer) and an experiments job (about five times cheaper). The
// kinds are what the workload must cover; their counts are assumptions,
// as no log of real callers exists.
var coldBlock = []string{
	"fine", "fine", "fine", "fine", "fine", "fine",
	"coarse", "coarse",
	"row_job", "row_job", "row_job",
	"other_job",
}

// cheapExperiments are deterministic paper artifacts that finish in tens
// of milliseconds; table1 and fig3.1 (Monte Carlo) are left out.
var cheapExperiments = []string{"fig2.1", "fig2.2a", "fig2.2b", "fig3.2", "fig3.3", "table2"}

// coldPitch returns the n-th pitch mean of a run: a golden-ratio rotation
// from a seeded start, so no two laws of one run coincide and every seed
// visits different laws.
func coldPitch(seed uint64, n int) float64 {
	const phi = 0.6180339887498949
	x := unit(mix(seed, 0x7069746368)) + float64(n)*phi
	m := 3.7 + 0.7*(x-math.Floor(x))
	return math.Round(m*1e6) / 1e6
}

// coldWidths draws k distinct widths from choices.
func coldWidths(h uint64, choices []float64, k int) []float64 {
	p := perm(h, len(choices))
	out := make([]float64, k)
	for i := range out {
		out[i] = choices[p[i]]
	}
	return out
}

// coldExpJob is an experiments job over two cheap artifacts with a fresh
// seed.
func coldExpJob(h uint64) op {
	p := perm(h, len(cheapExperiments))
	names := []string{cheapExperiments[p[0]], cheapExperiments[p[1]]}
	seed := mix(h, 0x657870)%1_000_000_000 + 1
	return op{Kind: kindExpJob, Method: "POST", Path: "/v1/experiments",
		Body:        mustJSON(server.ExperimentRequestJSON{Experiments: names, Seed: seed}),
		Experiments: names, ExpSeed: seed}
}

var (
	fineWidths   = warmWidths
	coarseWidths = []float64{40, 50, 60, 70, 80, 90, 100}
)

var coldSweep = &workload{
	name:        "cold-sweep",
	conns:       1,
	store:       true,
	replayOps:   12,
	overheadOps: 2,
	gen: func(seed uint64, conn, i int) op {
		block := perm(mix(seed, 2, uint64(conn), uint64(i/len(coldBlock))), len(coldBlock))
		h := mix(seed, 3, uint64(conn), uint64(i))
		law := coldPitch(seed, 2*i+conn)
		switch coldBlock[block[i%len(coldBlock)]] {
		case "fine":
			return queryOp(kindQuery, query.Spec{Kind: query.KindPF, PitchMeanNM: law, Sweep: &query.Sweep{
				Corners: warmCorners, WidthsNM: coldWidths(h, fineWidths, 4), Nodes: []string{"45nm", "22nm"}}})
		case "coarse":
			return queryOp(kindQuery, query.Spec{Kind: query.KindPF, PitchMeanNM: law,
				GridStepNM: 0.5, MaxWidthNM: 100, Sweep: &query.Sweep{
					Corners: warmCorners, WidthsNM: coldWidths(h, coarseWidths, 4)}})
		case "other_job":
			if (i/len(coldBlock))%2 == 1 {
				return coldExpJob(h)
			}
			return queryOp(kindQueryJob, query.Spec{Kind: query.KindNoise, PitchMeanNM: law, Sweep: &query.Sweep{
				Corners: warmCorners, WidthsNM: coldWidths(h, fineWidths, 3)}})
		case "row_job":
			scenario := []string{"aligned", "uncorrelated"}[pick(splitmix(h), 2)]
			return queryOp(kindQueryJob, query.Spec{Kind: query.KindRowYield, Scenario: scenario,
				PitchMeanNM: law, Sweep: &query.Sweep{Corners: warmCorners, WidthsNM: coldWidths(h, fineWidths, 3)}})
		}
		panic("unreachable")
	},
	warm: func(seed uint64) []op {
		// The default law only: no law of the timed stream is touched.
		return []op{
			queryOp(kindQuery, query.Spec{Kind: query.KindPF, WidthNM: 155}),
			queryOp(kindQueryJob, query.Spec{Kind: query.KindNoise, WidthNM: 155}),
		}
	},
}

// --- rare-row -----------------------------------------------------------------

// Rare-row query constants: the worst corner, the 11 reference widths,
// the rel-err target and the explicit round cap every estimate runs under.
const (
	rareRelErr = 0.1
	rareCap    = 1 << 16
)

var (
	rareWidths  = []float64{120, 125, 130, 135, 140, 145, 150, 155, 160, 165, 170}
	rareMethods = []string{"plain", "tilted", "auto"}
)

func rareSpec(width float64, method string, seed uint64) query.Spec {
	return query.Spec{Kind: query.KindRowYield, Corner: "worst", Scenario: "unaligned",
		WidthNM: width, MCMethod: method, RelErrTarget: rareRelErr, Rounds: rareCap, Seed: seed}
}

var rareRow = &workload{
	name:        "rare-row",
	conns:       1,
	replayOps:   48,
	overheadOps: 8,
	gen: func(seed uint64, conn, i int) op {
		// Blocks of four: an optimiser step that estimates one width with
		// each method in a seeded order, then an async aligned-scenario job
		// at the same width. Widths cycle through a seeded permutation, so
		// every run covers them evenly. One estimate per method is an
		// assumed even mix; the job is there only so the run can report
		// job_turnaround_p50_ms, which every workload must.
		block, pos := i/4, i%4
		widths := perm(mix(seed, 4, uint64(conn), uint64(block/len(rareWidths))), len(rareWidths))
		w := rareWidths[widths[block%len(rareWidths)]]
		if pos == 3 {
			return queryOp(kindQueryJob, query.Spec{Kind: query.KindRowYield, Corner: "worst",
				Scenario: "aligned", WidthNM: w})
		}
		order := perm(mix(seed, 6, uint64(conn), uint64(block)), len(rareMethods))
		o := queryOp(kindQuery, rareSpec(w, rareMethods[order[pos]], mix(seed, 5, uint64(conn), uint64(i))|1))
		o.Step, o.Follows = block+1, pos > 0
		return o
	},
	warm: func(seed uint64) []op {
		// Row-model placement and preparation for every width, on a
		// two-round plain estimate that costs nothing else.
		var ops []op
		for _, w := range rareWidths {
			ops = append(ops, queryOp(kindQuery, query.Spec{Kind: query.KindRowYield, Corner: "worst",
				Scenario: "unaligned", WidthNM: w, Rounds: 2}))
		}
		return append(ops, queryOp(kindQueryJob, query.Spec{Kind: query.KindRowYield, Corner: "worst",
			Scenario: "aligned", WidthNM: rareWidths[0]}))
	},
}
