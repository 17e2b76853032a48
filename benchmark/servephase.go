package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
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

	"mmlpt/internal/atlas"
	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/packet"
	"mmlpt/internal/traceio"
)

// The query mix. Most queries go to a hot set: the addresses of the
// first half of the shards atlasd keeps decoded. Every coldEvery-th
// query is cold: an address of a shard outside the hot set, the shards
// taken in turn, so when the snapshot has more shards than the cache
// every cold query forces a shard decode. Every absentEvery-th query
// asks for an address the atlas never saw and must answer 404. Each
// query asks /v1/router or /v1/addr with equal odds.
const (
	coldEvery   = 50
	absentEvery = 32
	absentAddrs = 64
	queryRing   = 1 << 15
)

// query is one request and the exact response the serving layer says
// it must get.
type query struct {
	path   string
	status int
	body   []byte
	addr   packet.Addr
	router bool
}

// The response shapes cmd/atlasd writes, field for field: expected
// bodies are encoded with them from serve.Service answers.
type routerResponse struct {
	Addr   string   `json:"addr"`
	Router []string `json:"router"`
}

type obsResponse struct {
	Pair int `json:"pair"`
	Hop  int `json:"hop"`
}

type addrResponse struct {
	Addr string        `json:"addr"`
	Seen []obsResponse `json:"seen"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// answer asks the serving layer what the HTTP route must return.
func answer(svc *serve.Service, router bool, a packet.Addr) (int, []byte, error) {
	var v any
	var err error
	if router {
		var members []packet.Addr
		members, err = svc.Router(a)
		resp := routerResponse{Addr: a.String(), Router: make([]string, len(members))}
		for i, m := range members {
			resp.Router[i] = m.String()
		}
		v = resp
	} else {
		var seen []atlas.Obs
		seen, err = svc.Provenance(a)
		resp := addrResponse{Addr: a.String(), Seen: make([]obsResponse, len(seen))}
		for i, o := range seen {
			resp.Seen[i] = obsResponse{Pair: o.Pair, Hop: o.Hop}
		}
		v = resp
	}
	status := http.StatusOK
	switch {
	case errors.Is(err, serve.ErrNotFound):
		status, v = http.StatusNotFound, errorResponse{Error: err.Error()}
	case err != nil:
		return 0, nil, err
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		return 0, nil, err
	}
	return status, b.Bytes(), nil
}

// buildQueries draws a ring of queries over the snapshot from the seed
// and asks an in-process serve.Service for each one's expected answer.
// The cache is atlasd's decoded-shard budget; 0 sizes it to hold every
// shard. It returns the ring and the budget.
func buildQueries(snap string, seed uint64, cache int, check *checker) ([]query, int, error) {
	r, err := traceio.OpenAtlasFile(snap)
	if err != nil {
		return nil, 0, err
	}
	nshards := r.NumShards()
	if cache <= 0 {
		cache = nshards
	}
	hot := max(1, cache/2)
	shardOf := r.ShardFor
	defer r.Close()

	svc, err := serve.Open(snap, serve.Options{CacheShards: nshards})
	if err != nil {
		return nil, 0, err
	}
	defer svc.Close()
	var hotAddrs []packet.Addr
	byShard := make([][]packet.Addr, nshards)
	err = svc.ForEachNode(func(n *traceio.AtlasNodeV2) error {
		a, err := packet.ParseAddr(n.Addr)
		if err != nil {
			return err
		}
		i := shardOf(a)
		byShard[i] = append(byShard[i], a)
		if i < hot {
			hotAddrs = append(hotAddrs, a)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if len(hotAddrs) == 0 {
		return nil, 0, fmt.Errorf("snapshot %s has no addresses to query", snap)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	absent := make([]packet.Addr, absentAddrs)
	for i := range absent {
		// The synthetic Internet numbers everything outside 172.16/12.
		absent[i] = packet.AddrFrom4(172, 16+byte(rng.Intn(16)), byte(rng.Intn(256)), byte(1+rng.Intn(254)))
		_, err := svc.Router(absent[i])
		check.ok(errors.Is(err, serve.ErrNotFound), "absent address %s is in the atlas (%v)", absent[i], err)
	}

	type key struct {
		a      packet.Addr
		router bool
	}
	memo := make(map[key]query)
	qs := make([]query, queryRing)
	for i := range qs {
		var a packet.Addr
		switch {
		case i%coldEvery == coldEvery-1:
			// Cold queries walk the shards past the hot set in turn, so
			// once those outnumber the cache's free slots every cold
			// query decodes a shard.
			k := i / coldEvery
			shard := byShard[k%nshards]
			if nshards > hot {
				shard = byShard[hot+k%(nshards-hot)]
			}
			a = shard[rng.Intn(len(shard))]
		case i%absentEvery == absentEvery-1:
			a = absent[rng.Intn(len(absent))]
		default:
			a = hotAddrs[rng.Intn(len(hotAddrs))]
		}
		k := key{a, rng.Intn(2) == 0}
		q, ok := memo[k]
		if !ok {
			status, body, err := answer(svc, k.router, a)
			if err != nil {
				return nil, 0, err
			}
			route := "/v1/addr/"
			if k.router {
				route = "/v1/router/"
			}
			q = query{path: route + a.String(), status: status, body: body, addr: a, router: k.router}
			memo[k] = q
		}
		qs[i] = q
	}
	return qs, cache, nil
}

// atlasd is a running cmd/atlasd process.
type atlasd struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	exited chan struct{}
}

// startAtlasd starts the real atlasd binary on snap with a cache of
// `cache` shards, listening on a free loopback port, and waits until
// /healthz answers.
func startAtlasd(bin, snap string, cache int) (*atlasd, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	d := &atlasd{base: "http://" + addr, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-snapshot", snap, "-listen", addr, "-cache", strconv.Itoa(cache))
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("atlasd exited during start-up: %s", strings.TrimSpace(d.stderr.String()))
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("atlasd did not become healthy: %s", strings.TrimSpace(d.stderr.String()))
}

// cpu returns the CPU time, user and system, atlasd has used so far,
// from /proc/<pid>/stat.
func (d *atlasd) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("atlasd CPU time: %w", err)
	}
	// utime and stime are the 12th and 13th fields after the
	// parenthesized command name.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("atlasd CPU time: short /proc stat line")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("atlasd CPU time: unparsable /proc stat line")
	}
	return time.Duration(utime+stime) * time.Second / userHZ, nil
}

// stop asks atlasd to shut down, kills it if it does not, and waits for
// it to exit. It returns the process's peak resident set in MB.
func (d *atlasd) stop() float64 {
	peak := peakRSSMB(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	return peak
}

// The closed loop runs until atlasd has used at least minServeCPU of
// CPU time, so its per-CPU rate rests on ten or more of the kernel's
// 10 ms ticks; it gives up after maxClosedRounds rounds.
const (
	minServeCPU     = 100 * time.Millisecond
	maxClosedRounds = 50
)

// serveConfig sizes a serve phase.
type serveConfig struct {
	closed time.Duration // closed-loop measurement
	open   time.Duration // open-loop measurement
	rate   float64       // open-loop offered rate, requests per second
	conns  int           // client connections (closed-loop clients, open-loop senders)
	cache  int           // atlasd's decoded-shard budget
}

// serveOut is what a serve phase measured.
type serveOut struct {
	// qpsPerCPU is closed-loop requests per second of atlasd CPU time,
	// wallQPS per second of steal-free wall time.
	qpsPerCPU, wallQPS float64
	p50, p99           float64 // open loop, ms from when each request was due
	n                  int     // open-loop requests
	closedMS           []float64
	lateMS             []float64 // timer overshoot of idle open-loop senders
	rssMB              float64   // atlasd's peak resident set
}

// client is one keep-alive HTTP client per benchmark connection.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// do sends one query and checks the response against the expected one.
func do(client *http.Client, base string, q *query, check *checker) {
	resp, err := client.Get(base + q.path)
	if !check.ok(err == nil, "GET %s: %v", q.path, err) {
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	check.ok(err == nil && resp.StatusCode == q.status && bytes.Equal(body, q.body),
		"GET %s: status %d body %q, want %d %q", q.path, resp.StatusCode, body, q.status, q.body)
}

// servePhase serves snap with atlasd and drives it: a warm-up pass over
// the hot set, a closed loop (cfg.conns clients, each sending its next
// request when the previous one returns) for the throughput, and an
// open loop at cfg.rate requests per second for the latency
// percentiles, each request timed from when it was due.
func servePhase(bin, snap string, qs []query, cfg serveConfig, tr *tracer, check *checker) (*serveOut, error) {
	d, err := startAtlasd(bin, snap, cfg.cache)
	if err != nil {
		return nil, err
	}
	client := newClient(cfg.conns)
	defer client.CloseIdleConnections()
	out := &serveOut{}

	// Warm-up: the first queries of the ring, enough to decode every hot
	// shard, unmeasured.
	warm := len(qs) / 8
	runClients(cfg.conns, func(next func() int) {
		for i := next(); i < warm; i = next() {
			do(client, d.base, &qs[i], check)
		}
	})

	// Closed loop. The benchmark's HTTP client shares the CPUs with
	// atlasd and costs more CPU per request than atlasd does, so the
	// wall-clock rate measures the client and the host as much as the
	// server. serve.qps_per_cpu is atlasd's own CPU time per request
	// instead, as requests per CPU-second: its capacity per core. The
	// kernel counts that CPU time in 10 ms ticks, so the loop runs on,
	// a cfg.closed at a time, until atlasd has used minServeCPU.
	watch := startWatch()
	cpu0, err := d.cpu()
	if err != nil {
		d.stop()
		return nil, err
	}
	var used time.Duration
	var closedMu sync.Mutex
	for round := 0; used < minServeCPU; round++ {
		if round == maxClosedRounds {
			d.stop()
			return nil, fmt.Errorf("atlasd used %v of CPU in %d closed-loop rounds, want %v", used, round, minServeCPU)
		}
		deadline := time.Now().Add(cfg.closed)
		runClients(cfg.conns, func(next func() int) {
			var lat []float64
			for i := next(); time.Now().Before(deadline); i = next() {
				t0 := time.Now()
				do(client, d.base, &qs[(warm+i)%len(qs)], check)
				lat = append(lat, msSince(t0))
			}
			closedMu.Lock()
			out.closedMS = append(out.closedMS, lat...)
			closedMu.Unlock()
		})
		cpu1, err := d.cpu()
		if err != nil {
			d.stop()
			return nil, err
		}
		used = cpu1 - cpu0
	}
	served := float64(len(out.closedMS))
	out.qpsPerCPU = served / used.Seconds()
	out.wallQPS = served / watch.own().Seconds()
	tr.add("serve.closed_loop", -1, -1, watch.start, time.Now())

	// Open loop: request i is due at t0 + i/rate. A request whose sender
	// is still busy at its due time is timed from the due time, so a
	// stall counts against every request queued behind it. A sender that
	// is idle sleeps until the due time; the timer's overshoot is the
	// generator's own lateness, reported as loadgen.late_ms and not
	// charged to the request.
	out.n = int(cfg.rate * cfg.open.Seconds())
	latency := make([]float64, out.n)
	t0 := time.Now().Add(10 * time.Millisecond)
	var mu sync.Mutex
	runClients(cfg.conns, func(next func() int) {
		var late []float64
		for i := next(); i < out.n; i = next() {
			due := t0.Add(time.Duration(float64(i) / cfg.rate * float64(time.Second)))
			from := due
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
				from = time.Now()
				late = append(late, float64(from.Sub(due))/float64(time.Millisecond))
			}
			do(client, d.base, &qs[i%len(qs)], check)
			latency[i] = msSince(from)
		}
		mu.Lock()
		out.lateMS = append(out.lateMS, late...)
		mu.Unlock()
	})
	tr.add("serve.open_loop", -1, -1, t0, time.Now())
	out.p50 = quantile(latency, 0.50)
	out.p99 = quantile(latency, 0.99)
	out.rssMB = d.stop()
	return out, nil
}

// runClients runs fn on n goroutines sharing one request counter and
// waits for all of them.
func runClients(n int, fn func(next func() int)) {
	var counter atomic.Int64
	next := func() int { return int(counter.Add(1) - 1) }
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(next)
		}()
	}
	wg.Wait()
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// directOut is the serving layer measured without HTTP: the same queries
// as the open loop, replayed one at a time through a fresh in-process
// serve.Service with atlasd's cache budget.
type directOut struct {
	openMS             float64 // serve.Open, median of several
	hitUS, decodeMS    float64 // p50 of queries that hit the cache / decoded a shard
	allUS              float64 // p50 of all queries
	decodes, evictions uint64
	hitRatio           float64
}

func serveDirect(snap string, qs []query, n, cache int, tr *tracer) (*directOut, error) {
	out := &directOut{}
	var opens []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		svc, err := serve.Open(snap, serve.Options{CacheShards: cache})
		if err != nil {
			return nil, err
		}
		opens = append(opens, msSince(t0))
		svc.Close()
	}
	out.openMS = median(opens)

	svc, err := serve.Open(snap, serve.Options{CacheShards: cache})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	start := time.Now()
	var hits, decodes, all []float64
	for i := 0; i < n; i++ {
		q := &qs[i%len(qs)]
		before := svc.Metrics().ShardDecodes
		t0 := time.Now()
		var err error
		if q.router {
			_, err = svc.Router(q.addr)
		} else {
			_, err = svc.Provenance(q.addr)
		}
		us := float64(time.Since(t0)) / float64(time.Microsecond)
		if err != nil && !errors.Is(err, serve.ErrNotFound) {
			return nil, err
		}
		all = append(all, us)
		if svc.Metrics().ShardDecodes > before {
			decodes = append(decodes, us/1000)
		} else {
			hits = append(hits, us)
		}
	}
	tr.add("serve.direct_replay", -1, -1, start, time.Now())
	m := svc.Metrics()
	out.hitUS, out.decodeMS, out.allUS = median(hits), median(decodes), median(all)
	out.decodes, out.evictions = m.ShardDecodes, m.CacheEvictions
	if m.CacheHits+m.ShardDecodes > 0 {
		out.hitRatio = float64(m.CacheHits) / float64(m.CacheHits+m.ShardDecodes)
	}
	return out, nil
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB from its
// /proc status file; 0 when unavailable.
func peakRSSMB(status string) float64 {
	b, err := os.ReadFile(status)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}
