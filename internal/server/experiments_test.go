package server

// POST /v1/experiments runs as an experiment QuerySpec job: these tests pin
// its wire form, its byte-identical resume across a restart (seed
// included), the adoption of journal records written before experiments
// jobs carried a spec, and the dedup group's release of a panicked flight.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/cnfet/yieldlab/internal/fault"
	"github.com/cnfet/yieldlab/internal/jobstore"
)

// submitExperiments posts an experiments request and returns the accepted
// job's raw body.
func submitExperiments(t *testing.T, base string, req ExperimentRequestJSON) []byte {
	t.Helper()
	code, body, hdr := postRaw(t, base+"/v1/experiments", req, nil)
	if code != http.StatusAccepted {
		t.Fatalf("experiments submit status %d: %s", code, body)
	}
	var job JobJSON
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if hdr.Get("Location") != "/v1/jobs/"+job.ID {
		t.Fatalf("Location = %q for %s", hdr.Get("Location"), job.ID)
	}
	return body
}

// jobBody polls a job to a terminal state and returns its raw body.
func jobBody(t *testing.T, base, id string) []byte {
	t.Helper()
	if job := pollJob(t, base, id); job.State != JobDone {
		t.Fatalf("job %s failed: %s", id, job.Error)
	}
	code, body, _ := getBody(t, base+"/v1/jobs/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("job %s status %d", id, code)
	}
	return body
}

// keysOf decodes a JSON object and returns its sorted key set.
func keysOf(t *testing.T, body []byte) []string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(body, &obj); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// rawField returns one top-level field of a JSON object, verbatim.
func rawField(t *testing.T, body []byte, key string) string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(body, &obj); err != nil {
		t.Fatal(err)
	}
	return string(obj[key])
}

// An experiments job keeps the experiments-job wire form: the accepted and
// the finished body carry exactly the keys they always did — no query,
// fingerprint or progress keys leak in from the spec it runs as.
func TestExperimentsJobWireKeys(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	accepted := submitExperiments(t, ts.URL, ExperimentRequestJSON{Experiments: []string{"fig2.2a"}})
	if got, want := keysOf(t, accepted), []string{"created_at", "experiments", "id", "kind", "state"}; !slices.Equal(got, want) {
		t.Fatalf("accepted keys = %v, want %v", got, want)
	}
	var job JobJSON
	if err := json.Unmarshal(accepted, &job); err != nil {
		t.Fatal(err)
	}
	done := jobBody(t, ts.URL, job.ID)
	want := []string{"created_at", "experiments", "finished_at", "id", "kind", "results", "started_at", "state"}
	if got := keysOf(t, done); !slices.Equal(got, want) {
		t.Fatalf("done keys = %v, want %v", got, want)
	}
	if err := json.Unmarshal(done, &job); err != nil {
		t.Fatal(err)
	}
	if job.Kind != JobKindExperiments || !slices.Equal(job.Experiments, []string{"fig2.2a"}) ||
		len(job.Results) != 1 || job.Results[0].Name != "fig2.2a" {
		t.Fatalf("done job = %+v", job)
	}
}

// A seeded experiments job journaled open resumes after a restart under its
// own seed: the resumed results are byte-identical to an uninterrupted run
// with that seed (table1 is Monte Carlo, so a lost seed changes them).
func TestSeededExperimentsJobResumesAcrossRestart(t *testing.T) {
	journal, err := jobstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := ExperimentRequestJSON{Experiments: []string{"table1"}, Seed: 7}

	// First life: the uninterrupted seeded run.
	srvA, err := New(Config{Params: testParams(), Jobs: journal})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	var job JobJSON
	if err := json.Unmarshal(submitExperiments(t, tsA.URL, req), &job); err != nil {
		t.Fatal(err)
	}
	want := rawField(t, jobBody(t, tsA.URL, job.ID), "results")
	tsA.Close()
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}

	// Forge the crash: the same record, journaled as running with no
	// results yet.
	recs, err := journal.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].State != JobDone {
		t.Fatalf("journal after first life = %+v", recs)
	}
	crashed := recs[0]
	crashed.State = JobRunning
	crashed.Results = nil
	crashed.Done = 0
	crashed.Finished = time.Time{}
	if err := journal.Put(crashed); err != nil {
		t.Fatal(err)
	}

	// Second life: adoption resumes the job under its journaled seed.
	_, tsB := newTestServer(t, Config{Jobs: journal})
	if got := rawField(t, jobBody(t, tsB.URL, crashed.ID), "results"); got != want {
		t.Fatalf("resumed results differ from the uninterrupted seeded run:\n%s\n%s", got, want)
	}
}

// putRawRecord journals a record body verbatim in the journal's envelope
// (magic+version | JSON body | crc32), the way an older server wrote it.
func putRawRecord(t *testing.T, dir, id string, body []byte) {
	t.Helper()
	out := append([]byte("CNFJOB\x00\x01"), body...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	if err := os.WriteFile(filepath.Join(dir, id+".job"), out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// Journal records written before experiments jobs ran as specs — kind
// experiments, names and workers only — still adopt: a terminal one serves
// the same body, an open one resumes to done (under the default seed, the
// only one such records know) and is re-journaled with its spec.
func TestOldFormatExperimentsRecordsAdopt(t *testing.T) {
	dir := t.TempDir()
	journal, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"fig2.2a"}

	// First life: a genuine finished job, its body the reference.
	srvA, err := New(Config{Params: testParams(), Jobs: journal})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	var job JobJSON
	if err := json.Unmarshal(submitExperiments(t, tsA.URL, ExperimentRequestJSON{Experiments: names}), &job); err != nil {
		t.Fatal(err)
	}
	wantBody := jobBody(t, tsA.URL, job.ID)
	tsA.Close()
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := journal.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("journal after first life = %+v", recs)
	}
	rec := recs[0]

	// Rewrite it in the old format, and add an open old-format record.
	type oldRecord struct {
		ID          string          `json:"id"`
		Kind        string          `json:"kind"`
		State       string          `json:"state"`
		Experiments []string        `json:"experiments"`
		Workers     int             `json:"workers"`
		Results     json.RawMessage `json:"results,omitempty"`
		Created     time.Time       `json:"created"`
		Started     time.Time       `json:"started,omitzero"`
		Finished    time.Time       `json:"finished,omitzero"`
	}
	for _, old := range []oldRecord{
		{ID: rec.ID, Kind: JobKindExperiments, State: JobDone, Experiments: names, Workers: 2,
			Results: rec.Results, Created: rec.Created, Started: rec.Started, Finished: rec.Finished},
		{ID: "job-2", Kind: JobKindExperiments, State: JobRunning, Experiments: names, Workers: 2,
			Created: rec.Created, Started: rec.Started},
	} {
		body, err := json.Marshal(old)
		if err != nil {
			t.Fatal(err)
		}
		putRawRecord(t, dir, old.ID, body)
	}

	// Second life: both adopt.
	_, tsB := newTestServer(t, Config{Jobs: journal})
	code, history, _ := getBody(t, tsB.URL+"/v1/jobs/"+rec.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("adopted history status %d", code)
	}
	if string(history) != string(wantBody) {
		t.Fatalf("adopted old-format history body differs:\n%s\n%s", history, wantBody)
	}
	resumed := jobBody(t, tsB.URL, "job-2")
	if got, want := rawField(t, resumed, "results"), rawField(t, wantBody, "results"); got != want {
		t.Fatalf("resumed old-format job results differ:\n%s\n%s", got, want)
	}
	if got, want := keysOf(t, resumed), keysOf(t, wantBody); !slices.Equal(got, want) {
		t.Fatalf("resumed keys = %v, want %v", got, want)
	}
	recs, err = journal.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.ID == "job-2" && len(r.Spec) == 0 {
			t.Fatalf("resumed old-format record %s re-journaled without its spec", r.ID)
		}
	}
}

// One panicking evaluation must not wedge its fingerprint: the flight is
// released, so an identical request afterwards computes afresh.
func TestPanickedFlightReleasesKey(t *testing.T) {
	t.Cleanup(fault.Reset)
	if err := fault.Enable(fault.SiteQueryEvaluate, "panic@nth=1"); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	client := &http.Client{Timeout: 10 * time.Second}
	url := ts.URL + "/v1/pf?width=155&corner=worst"
	if resp, err := client.Get(url); err == nil {
		resp.Body.Close()
	}
	stats := fault.Stats()
	if len(stats) != 1 || stats[0].Fired != 1 {
		t.Fatalf("fault stats = %+v, want one fired panic", stats)
	}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("request after the panic: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panic: status %d", resp.StatusCode)
	}
}

// Callers waiting on a flight whose leader panics receive an error instead
// of blocking forever, and the key is free for the next call.
func TestFlightPanicWakesFollowers(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	go func() {
		defer func() { _ = recover() }()
		_, _ = g.do("k", func() (any, error) { <-release; panic("boom") })
	}()
	for {
		g.mu.Lock()
		_, leading := g.calls["k"]
		g.mu.Unlock()
		if leading {
			break
		}
		time.Sleep(time.Millisecond)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := g.do("k", func() (any, error) { return 1, nil })
		errc <- err
	}()
	for g.sharedCount() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	select {
	case err := <-errc:
		if !errors.Is(err, errFlightPanicked) {
			t.Fatalf("follower err = %v, want errFlightPanicked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower still waiting on the panicked flight")
	}
	if v, err := g.do("k", func() (any, error) { return 2, nil }); err != nil || v != 2 {
		t.Fatalf("fresh call after the panic = %v, %v", v, err)
	}
}
