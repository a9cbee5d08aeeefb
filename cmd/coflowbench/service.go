package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// connections is the service workload's closed-loop client count:
// each connection sends its next request when the previous reply has
// been read.
const connections = 2

// daemon is a coflowd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

// startDaemon starts coflowd as the service workload runs it and
// returns once /healthz answers 200.
func startDaemon(path string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(path, "-addr", addr, "-workers", "2", "-cache", "256", "-pprof")
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting coflowd: %w", err)
		}
		d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
		go func() {
			cmd.Wait() // the exit status of a stopped daemon carries nothing
			close(d.exited)
		}()
		if lastErr = d.waitHealthy(10 * time.Second); lastErr == nil {
			return d, nil
		}
		d.stop() // e.g. another process took the port in between
	}
	return nil, lastErr
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (d *daemon) waitHealthy(timeout time.Duration) error {
	tr := &http.Transport{DisableKeepAlives: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("coflowd exited before answering /healthz")
		default:
		}
		if resp, err := client.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("coflowd at %s not healthy after %v", d.base, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks coflowd to drain and exit, kills it if it has not after
// ten seconds, and returns once it has exited.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// get fetches a GET endpoint's body.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// metrics scrapes coflowd's /metrics.
func (d *daemon) metrics() (map[string]float64, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(body)
}

// parseMetrics reads a Prometheus text exposition into series → value.
func parseMetrics(body []byte) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// totalAlloc reads coflowd's cumulative heap allocation from the
// runtime.MemStats footer of its debug heap profile.
func (d *daemon) totalAlloc() (uint64, error) {
	body, err := d.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("coflowd heap profile has no TotalAlloc line")
}

// vmHWM reads a process's peak resident set (VmHWM) in MB; pid "self"
// is this process.
func vmHWM(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// reportSummary is the part of a RunReport the client checks.
type reportSummary struct {
	Coflows       int     `json:"coflows"`
	Weighted      float64 `json:"weighted"`
	LowerBound    float64 `json:"lower_bound"`
	HasLowerBound bool    `json:"has_lower_bound"`
	Validated     bool    `json:"validated"`
}

// served is what the client saw of one request.
type served struct {
	start, bytes float64
	validated    bool
}

// serviceSetUp is what a service run does before its first request: it
// draws the request list, enough for dur, and starts coflowd.
func serviceSetUp(w *workload, seed int64, dur time.Duration, coflowd string) ([]op, *daemon, error) {
	reqs, err := serviceRequests(w, seed, int(dur.Seconds()*1000)+1000)
	if err != nil {
		return nil, nil, err
	}
	d, err := startDaemon(coflowd)
	return reqs, d, err
}

// runService measures coflowd: closed-loop requests over two
// connections until dur has passed. Every reply must be a validated
// report; repeats must be byte-identical to the request they repeat,
// and every hundredth fresh request is recomputed through the library
// and must match.
func runService(ctx context.Context, w *workload, seed int64, dur time.Duration, traced bool, coflowd string, p *prober) (*run, error) {
	reqs, d, err := serviceSetUp(w, seed, dur, coflowd)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	r := &run{w: w}

	m0, err := d.metrics()
	if err != nil {
		return nil, err
	}
	a0, err := d.totalAlloc()
	if err != nil {
		return nil, err
	}
	info, err := load(d.base+"/v1/run", reqs, dur, r, p)
	if err != nil {
		return nil, err
	}
	m1, err := d.metrics()
	if err != nil {
		return nil, err
	}
	a1, err := d.totalAlloc()
	if err != nil {
		return nil, err
	}
	r.allocBytes = a1 - a0
	r.peakRSS = vmHWM(strconv.Itoa(d.cmd.Process.Pid))

	for i := range r.ops {
		rec := &r.ops[i]
		switch {
		case rec.Err != "":
		case !info[i].validated:
			r.problems = append(r.problems, fmt.Sprintf("request %d: report not validated", i))
		case reqs[i].Ref >= 0 && r.ops[reqs[i].Ref].Err == "" && rec.Digest != r.ops[reqs[i].Ref].Digest:
			r.problems = append(r.problems, fmt.Sprintf("request %d repeats %d but its report differs", i, reqs[i].Ref))
		case reqs[i].Ref < 0 && i%100 == 0:
			body, _, _, err := frontDoor(ctx, rec.spec)
			sum := sha256.Sum256(append(body, '\n'))
			if err != nil || hex.EncodeToString(sum[:]) != rec.Digest {
				r.problems = append(r.problems, fmt.Sprintf("request %d: report differs from the library's (err %v)", i, err))
			}
		}
	}
	if err := lowerBounds(r.ops); err != nil {
		return nil, err
	}
	if traced {
		r.serverLayers(info, m0, m1)
	}
	return r, nil
}

// load sends reqs over the two connections until a window of dur has
// passed and records each request into r.ops (in request order). It
// stops both connections whenever p is due a set-up sample, and leaves
// the sample's time out of the window.
func load(url string, reqs []op, dur time.Duration, r *run, p *prober) ([]served, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: connections, MaxConnsPerHost: connections, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: time.Minute}
	recs := make([]opRecord, len(reqs))
	info := make([]served, len(reqs))
	var next atomic.Int64
	origin := time.Now()
	for r.window < dur && int(next.Load()) < len(reqs) {
		due, err := p.tick(r.window)
		if err != nil {
			return nil, err
		}
		segment := min(dur, due) - r.window
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < connections; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(start) < segment {
					i := int(next.Add(1)) - 1
					if i >= len(reqs) {
						return
					}
					recs[i], info[i] = send(client, url, i, reqs[i], origin)
				}
			}()
		}
		wg.Wait()
		r.window += time.Since(start)
	}
	n := min(int(next.Load()), len(reqs))
	r.ops = recs[:n]
	return info[:n], nil
}

// send posts request i and reads the reply; start is when the load
// began, which span start times count from.
func send(client *http.Client, url string, i int, o op, start time.Time) (opRecord, served) {
	rec := opRecord{I: i, Class: o.Class, spec: o.Spec}
	t0 := time.Now()
	info := served{start: ms(t0.Sub(start))}
	resp, err := client.Post(url, "application/json", bytes.NewReader(o.body))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rec.Ms = ms(time.Since(t0))
	switch {
	case err != nil:
		rec.Err = "transport: " + err.Error()
	case resp.StatusCode/100 != 2:
		line, _, _ := strings.Cut(string(body), "\n")
		rec.Err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, line)
	default:
		var rep reportSummary
		if err := json.Unmarshal(body, &rep); err != nil {
			rec.Err = "decoding report: " + err.Error()
			break
		}
		sum := sha256.Sum256(body)
		rec.Digest = hex.EncodeToString(sum[:])
		rec.Coflows, rec.weighted = rep.Coflows, rep.Weighted
		if rep.HasLowerBound {
			rec.lp = rep.LowerBound
		}
		info.validated = rep.Validated
	}
	info.bytes = float64(len(body))
	return rec, info
}

// serverLayers turns the /metrics deltas of the window into the
// per-request layer numbers of the traced service run: what the HTTP
// layer, the cache and the semaphore cost, and the work counters the
// runs inside coflowd recorded.
func (r *run) serverLayers(info []served, m0, m1 map[string]float64) {
	deltas := map[string]float64{}
	for name, v := range m1 {
		deltas[name] = v - m0[name]
	}
	delete(deltas, "lu_fill_nnz") // a gauge: the last solve's fill
	sumPrefix := func(prefix string) float64 {
		s := 0.0
		for name, d := range deltas {
			if strings.HasPrefix(name, prefix) {
				s += d
			}
		}
		return s
	}
	n := float64(len(r.ops))
	client, respBytes, non2xx := 0.0, 0.0, 0.0
	for i, rec := range r.ops {
		client += rec.Ms
		respBytes += info[i].bytes
		if strings.HasPrefix(rec.Err, "HTTP ") {
			non2xx++
		}
	}
	server := deltas[`http_request_seconds_sum{route="/v1/run"}`] * 1e3
	hits, misses := deltas["cache_hits_total"], deltas["cache_misses_total"]
	r.httpLayer = map[string]float64{
		"http.client_ms":         client / n,
		"http.server_ms":         server / n,
		"http.transport_ms":      (client - server) / n,
		"http.semaphore_wait_ms": deltas["http_semaphore_wait_seconds_total"] * 1e3 / n,
		"http.non_2xx":           non2xx / n,
		"http.response_bytes":    respBytes / n,
		"cache.hit_ratio":        hits / (hits + misses),
		"cache.evictions":        deltas["cache_evictions_total"] / n,
	}
	r.layers = map[string]*layerTime{"engine.schedule": {
		Busy:  sumPrefix("engine_schedule_seconds_total") * 1e3,
		Calls: int(sumPrefix("engine_schedule_events_total")),
	}}
	r.work = workCounts{}
	r.work.add(deltas)
	for i, rec := range r.ops {
		r.spans = append(r.spans, span{ID: i, Parent: -1, Op: i, Name: "http.request",
			Start: info[i].start, End: info[i].start + rec.Ms, Busy: rec.Ms, Calls: 1})
	}
}
