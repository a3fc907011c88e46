package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/cnfet/yieldlab/internal/server"
)

// outcome is what one operation produced, as the client saw it.
type outcome struct {
	op      op
	conn, i int
	// latency is the request latency of a sync op, or the submit-to-terminal
	// turnaround of a job.
	latency time.Duration
	status  int    // HTTP status of the request (the submit, for a job)
	body    []byte // response body, or the final job record
	etag    string
	err     error // transport or protocol failure: no usable answer
	job     *server.JobJSON
}

// served reports whether the op got a usable answer from the service.
func (o *outcome) served() bool {
	if o.err != nil {
		return false
	}
	if o.op.isJob() {
		return o.job != nil && o.job.State == server.JobDone
	}
	if o.op.Kind == kindReval {
		return o.status == http.StatusNotModified
	}
	return o.status == http.StatusOK
}

// client drives one connection. Each client owns its transport, so every
// connection is one keep-alive TCP stream to the server.
type client struct {
	base  string
	hc    *http.Client
	etags map[int]string // warm key → ETag, read-only during timing
	// handler, when set, serves requests in-process instead of over the
	// network: the traced run replays through the server's own handler.
	handler http.Handler
}

func newClient(base string, etags map[int]string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true, IdleConnTimeout: time.Minute}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 5 * time.Minute}, etags: etags}
}

// newInProcessClient serves every request through h.ServeHTTP.
func newInProcessClient(h http.Handler, etags map[int]string) *client {
	return &client{handler: h, etags: etags}
}

func (c *client) close() {
	if c.hc != nil {
		c.hc.Transport.(*http.Transport).CloseIdleConnections()
	}
}

func (c *client) send(method, path string, body []byte, hdr map[string]string) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	if c.handler != nil {
		req := httptest.NewRequest(method, path, rd)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		c.handler.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes(), rec.Header(), nil
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header, err
}

// run executes one op to completion and times it.
func (c *client) run(o op) outcome {
	out := outcome{op: o}
	var hdr map[string]string
	if o.Kind == kindReval {
		hdr = map[string]string{"If-None-Match": c.etags[o.Key]}
	}
	start := time.Now()
	status, body, h, err := c.send(o.Method, o.Path, o.Body, hdr)
	out.status, out.err = status, err
	if err == nil {
		out.etag = h.Get("ETag")
	}
	if o.isJob() && err == nil {
		out.job, out.body, out.err = c.await(status, body)
	} else {
		out.body = body
	}
	out.latency = time.Since(start)
	return out
}

// await polls a submitted job until it is done or failed. Polls back off
// from 100µs to 5ms, so a warm job is seen within a round trip of its end
// and a cold one costs the server a poll per 5ms.
func (c *client) await(status int, body []byte) (*server.JobJSON, []byte, error) {
	if status != http.StatusAccepted {
		return nil, body, fmt.Errorf("job submit: status %d: %s", status, firstLine(body))
	}
	var job server.JobJSON
	if err := json.Unmarshal(body, &job); err != nil {
		return nil, body, fmt.Errorf("job submit: %w", err)
	}
	wait := 100 * time.Microsecond
	for {
		st, b, _, err := c.send("GET", "/v1/jobs/"+job.ID, nil, nil)
		if err != nil {
			return nil, b, err
		}
		if st != http.StatusOK {
			return nil, b, fmt.Errorf("job poll: status %d: %s", st, firstLine(b))
		}
		var cur server.JobJSON
		if err := json.Unmarshal(b, &cur); err != nil {
			return nil, b, fmt.Errorf("job poll: %w", err)
		}
		if cur.State == server.JobDone || cur.State == server.JobFailed {
			return &cur, b, nil
		}
		time.Sleep(wait)
		wait = min(2*wait, 5*time.Millisecond)
	}
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(string(b), "\n")
	return s
}

// --- the server process -------------------------------------------------------

// serverProc is one launched yieldserver.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	log  string
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// launch starts the server with default flags and waits until /healthz
// answers. A non-empty prefill adds -store on a new directory seeded with
// the prefill records.
func launch(bin, dir, prefill string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}
	if prefill != "" {
		storeDir := filepath.Join(dir, "store")
		if err := seedStore(prefill, storeDir); err != nil {
			return nil, err
		}
		args = append(args, "-store", storeDir)
	}
	logPath := filepath.Join(dir, "server.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), log: logPath}
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := hc.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("server at %s not healthy after 60s: %v", p.base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the server and waits for it to exit. Shutdown is not part of
// any measurement, so it skips the graceful drain.
func (p *serverProc) stop() {
	if p.cmd.Process != nil && p.cmd.ProcessState == nil {
		_ = p.cmd.Process.Kill()
		_ = p.cmd.Wait()
	}
}

// cpu returns the server's user+system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func (p *serverProc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields count from after ")".
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("unparsable /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat times")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS returns the server's VmHWM in MiB.
func (p *serverProc) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// crossover returns the FFT/direct crossover ratio the server logged at
// start (0 when it logged none).
func (p *serverProc) crossover() float64 {
	f, err := os.Open(p.log)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for n := 0; sc.Scan() && n < 50; n++ {
		if _, v, ok := strings.Cut(sc.Text(), "convolution crossover ratio: "); ok {
			r, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return r
		}
	}
	return 0
}

// stats fetches /v1/stats.
func (c *client) stats() (server.StatsJSON, error) {
	var st server.StatsJSON
	status, b, _, err := c.send("GET", "/v1/stats", nil, nil)
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", status)
	}
	return st, json.Unmarshal(b, &st)
}

// warmUp sends a workload's set-up requests in order and records the
// ETag of every warm key.
func warmUp(c *client, ops []op) error {
	for _, o := range ops {
		r := c.run(o)
		if !r.served() {
			return fmt.Errorf("warm-up %s %s: status %d: %v %s", o.Method, o.Path, r.status, r.err, firstLine(r.body))
		}
		if o.Kind == kindPF && r.etag != "" {
			c.etags[o.Key] = r.etag
		}
	}
	return nil
}

// drive runs the workload's closed loop: each connection sends its next
// operation only when the previous one completed, until the deadline. An
// operation started before the deadline runs to completion and counts.
func drive(w *workload, seed uint64, base string, etags map[int]string, d time.Duration) ([]outcome, time.Duration) {
	var wg sync.WaitGroup
	per := make([][]outcome, w.conns)
	start := time.Now()
	deadline := start.Add(d)
	for conn := 0; conn < w.conns; conn++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(base, etags)
			defer c.close()
			for i := 0; ; i++ {
				o := w.gen(seed, conn, i)
				if !o.Follows && !time.Now().Before(deadline) {
					break
				}
				r := c.run(o)
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

// statsDelta renders the /v1/stats counters that moved between two
// snapshots taken around the timed phase.
func statsDelta(a, b server.StatsJSON) string {
	parts := []string{
		fmt.Sprintf("sweeps=%d", b.SweepCache.Sweeps-a.SweepCache.Sweeps),
		fmt.Sprintf("cache_hits=%d", b.SweepCache.Hits-a.SweepCache.Hits),
		fmt.Sprintf("cache_misses=%d", b.SweepCache.Misses-a.SweepCache.Misses),
		fmt.Sprintf("evictions=%d", b.SweepCache.Evictions-a.SweepCache.Evictions),
		fmt.Sprintf("deduped=%d", b.DedupedRequests-a.DedupedRequests),
		fmt.Sprintf("shed=%d", b.ShedRequests-a.ShedRequests),
	}
	if a.Store != nil && b.Store != nil {
		parts = append(parts, fmt.Sprintf("store_saves=%d", b.Store.Saves-a.Store.Saves))
		if b.Store.LastPersistError != "" {
			parts = append(parts, fmt.Sprintf("last_persist_error=%q", b.Store.LastPersistError))
		}
	}
	if a.Journal != nil && b.Journal != nil {
		parts = append(parts, fmt.Sprintf("journal_puts=%d", b.Journal.Puts-a.Journal.Puts))
	}
	return strings.Join(parts, " ")
}
