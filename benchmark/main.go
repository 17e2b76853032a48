// Command surveybench is the repository's end-to-end benchmark: one
// seeded workload per run of the survey-to-serve path — tracing over the
// simulated Internet, the record sinks, the atlas snapshot write, delta
// compaction, and queries against the real cmd/atlasd over loopback
// HTTP. It prints every metric by name with its unit, checks the
// program's outputs, and ends with one JSON result line.
//
//	surveybench -atlasd bin/atlasd -workdir .bench_build \
//	    --workload router-survey --seed 3 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the same
// workload with timing wrappers on the program's public hooks and prints
// the per-layer metrics instead, writing its spans to
// <workdir>/traces/. README.md in this directory describes the
// workloads, the metrics and what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/survey"
)

// A run sets its workload up at least setupReps times and until
// setupMin has passed; setup_s is the median. The first repetitions of
// a process ran up to a third slower than the rest, for a varying
// number of them; two seconds of repetitions keeps them below the
// median.
const (
	setupReps = 3
	setupMin  = 2 * time.Second
)

// openLoopRate is the fixed offered rate of every open loop, requests
// per second: well below what atlasd sustains on every workload's
// snapshot, so the latency percentiles measure service, not backlog.
const openLoopRate = 500

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark run's settings and what it measured.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	atlasd   string
	dir      string // scratch directory, removed when the run ends
	workers  int

	check    checker
	tr       *tracer   // nil unless traced
	measured stopwatch // started when set-up ends
	// liveHeap stops the watch on the live heap started with measured
	// and returns its peak.
	liveHeap func() uint64
	e2e      map[string]metric
	layer    map[string]metric
}

func (r *run) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

func main() {
	var (
		workload = flag.String("workload", "", "ip-survey, router-survey or atlas-serve")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measuring time the workload is sized for")
		trace    = flag.Int("trace", 0, "1: per-layer metrics from a traced run; 0: end-to-end metrics")
		bin      = flag.String("atlasd", "", "cmd/atlasd binary to serve with")
		workdir  = flag.String("workdir", ".bench_build", "directory for scratch files and span output")
	)
	flag.Parse()
	if *bin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: surveybench -atlasd BIN [-workdir DIR] --workload W --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := runWorkload(*workload, *seed, *seconds, *trace == 1, *bin, *workdir)
	if err == nil {
		var line []byte
		line, err = json.Marshal(res)
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "surveybench:", err)
		os.Exit(1)
	}
}

func runWorkload(workload string, seed uint64, seconds float64, traced bool, atlasdBin, workdir string) (*result, error) {
	var body func(*run) error
	switch workload {
	case "ip-survey", "router-survey":
		body = (*run).surveyWorkload
	case "atlas-serve":
		body = (*run).atlasServe
	default:
		return nil, fmt.Errorf("unknown workload %q (ip-survey, router-survey or atlas-serve)", workload)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-"+workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{
		workload: workload, seed: seed, seconds: seconds,
		atlasd: atlasdBin, dir: dir, workers: runtime.NumCPU(),
		e2e: make(map[string]metric), layer: make(map[string]metric),
	}
	if traced {
		r.tr = newTracer(&r.check)
		// Layers a workload does not exercise read zero.
		for _, m := range perLayer {
			r.setLayer(m.name, m.unit, 0)
		}
	}
	if err := body(r); err != nil {
		return nil, err
	}
	runtime.GC() // a last cycle, so the watch sees what the run still holds
	r.setE2E("peak_heap_mb", "MB", float64(r.liveHeap())/mb)
	res := &result{Attempted: r.check.attempted, Failed: r.check.failed, Metrics: r.e2e}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if traced {
		r.setLayer("host.steal_s", "s", (stealTotal() - r.measured.steal).Seconds())
		res.Metrics = r.layer
		traces := filepath.Join(workdir, "traces")
		if err := os.MkdirAll(traces, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(traces, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
		if err := r.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "surveybench: %d spans written to %s\n", len(r.tr.spans), path)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-28s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	return res, nil
}

// share is a fraction of the run's measuring time.
func (r *run) share(f float64) time.Duration {
	return time.Duration(f * r.seconds * float64(time.Second))
}

// scaled sizes a workload by its per-second rate.
func (r *run) scaled(perSecond float64) int {
	n := int(perSecond * r.seconds)
	if n < 20 {
		n = 20
	}
	return n
}

// setUp runs fn repeatedly and reports the series' median as setup_s.
func (r *run) setUp(fn func(rep int) error) error {
	var times series
	first := time.Now()
	for rep := 0; rep < setupReps || time.Since(first) < setupMin; rep++ {
		runtime.GC() // every repetition starts from a collected heap
		if err := times.run(nil, "", func() error { return fn(rep) }); err != nil {
			return err
		}
	}
	r.setE2E("setup_s", "s", times.median())
	return nil
}

// startMeasuring returns what set-up left behind to the OS and starts
// the measured part's clock and live-heap watch, so peak_heap_mb covers
// only the measured part.
func (r *run) startMeasuring() {
	debug.FreeOSMemory()
	r.measured = startWatch()
	r.liveHeap = watchLiveHeap()
}

// surveyWorkload is ip-survey and router-survey. Set-up plans the
// survey, generating its universe as cmd/survey does. The benchmark then
// draws the traced pairs from it, untimed: that work is the
// benchmark's, not the program's. The measured part traces the pairs
// through the sinks, saves the one-pass snapshot, compacts the published
// deltas and serves the result.
func (r *run) surveyWorkload() error {
	level, universe := "ip", universeFactor*r.scaled(ipPairsPerSecond)
	if r.workload == "router-survey" {
		level, universe = "router", routerUniversePairs
	}
	var u *survey.Universe
	var rc survey.RunConfig
	err := r.setUp(func(int) error {
		u = nil // let the previous repetition's universe go
		var err error
		u, rc, err = plan(level, universe, r.seed, r.workers)
		return err
	})
	if err != nil {
		return err
	}
	var parts []surveyPart
	if level == "ip" {
		parts = ipSurveyDraw(u, rc, r.seed, r.scaled(ipPairsPerSecond))
	} else if parts, err = routerSurveyDraw(u, rc, r.seed, r.seconds); err != nil {
		return err
	}
	u = nil
	r.startMeasuring()
	s, err := runSurveys(r.dir, parts, publishDeltas, r.tr, &r.check)
	if err != nil {
		return err
	}
	parts = nil // release the universe before the later stages
	r.surveyMetrics(s)
	if r.tr != nil {
		r.surveyLayers(s)
		r.runtimeLayers(s.mem)
	}
	s.results = nil
	return r.compactAndServe(s, 0.2, 0.2)
}

// atlasServe is atlas-serve. Set-up runs the survey whose atlas is
// served: IP-level base plus a small router-level part, published as
// deltas. The measured part compacts the deltas and serves the result.
// The survey metrics come from the set-up repetitions, whose snapshots
// must agree byte for byte.
func (r *run) atlasServe() error {
	var outs []*surveyOut
	err := r.setUp(func(rep int) error {
		parts, err := atlasServePlan(r.seed, r.scaled(serveBasePairsPerSecond), r.workers)
		if err != nil {
			return err
		}
		dir := filepath.Join(r.dir, fmt.Sprintf("setup%d", rep))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		s, err := runSurveys(dir, parts, publishDeltas, nil, &r.check)
		if err != nil {
			return err
		}
		s.results = nil
		outs = append(outs, s)
		return nil
	})
	if err != nil {
		return err
	}
	r.startMeasuring()
	last := outs[len(outs)-1]
	want, err := os.ReadFile(last.full)
	if err != nil {
		return err
	}
	var rates, writes []float64
	for _, s := range outs {
		got, err := os.ReadFile(s.full)
		r.check.ok(err == nil && string(got) == string(want) && s.probes == last.probes,
			"set-up repetitions disagree: snapshots of %d and %d bytes, %d and %d probes", len(got), len(want), s.probes, last.probes)
		rates = append(rates, float64(s.pairs)/s.run.Seconds())
		writes = append(writes, s.write.Seconds())
	}
	r.setE2E("pairs_per_s", "1/s", median(rates))
	r.setE2E("probes_per_pair", "count", float64(last.probes)/float64(last.pairs))
	r.setE2E("snapshot_write_s", "s", median(writes))
	r.setE2E("snapshot_bytes_per_addr", "B", float64(last.snapBytes)/float64(last.addrs))
	return r.compactAndServe(last, 0.3, 0.5)
}

// surveyMetrics reports the survey stage's end-to-end metrics.
func (r *run) surveyMetrics(s *surveyOut) {
	r.setE2E("pairs_per_s", "1/s", float64(s.pairs)/s.run.Seconds())
	r.setE2E("probes_per_pair", "count", float64(s.probes)/float64(s.pairs))
	r.setE2E("snapshot_write_s", "s", s.write.Seconds())
	r.setE2E("snapshot_bytes_per_addr", "B", float64(s.snapBytes)/float64(s.addrs))
}

// compactAndServe compacts the survey's deltas and serves the result,
// spending the given shares of the measuring time in the closed and the
// open loop.
func (r *run) compactAndServe(s *surveyOut, closed, open float64) error {
	c, err := compactDeltas(r.dir, s, r.tr, &r.check)
	if err != nil {
		return err
	}
	if r.workload == "atlas-serve" && r.tr != nil {
		r.runtimeLayers(c.mem)
	}
	// atlas-serve serves with atlasd's default cache, which its snapshot
	// outgrows; the survey workloads keep their whole snapshot decoded.
	cache := 0
	if r.workload == "atlas-serve" {
		cache = serve.DefaultCacheShards
	}
	qs, cache, err := buildQueries(c.path, r.seed, cache, &r.check)
	if err != nil {
		return err
	}
	cfg := serveConfig{
		closed: r.share(closed), open: r.share(open),
		rate: openLoopRate, conns: r.workers, cache: cache,
	}
	sv, err := servePhase(r.atlasd, c.path, qs, cfg, r.tr, &r.check)
	if err != nil {
		return err
	}
	r.setE2E("compact_s", "s", c.elapsed.Seconds())
	r.setE2E("serve_p50_ms", "ms", sv.p50)
	if r.tr == nil {
		return nil
	}
	r.setLayer("serve.p99_ms", "ms", sv.p99)
	r.setLayer("serve.qps_per_cpu", "1/s", sv.qpsPerCPU)
	r.setLayer("loadgen.closed_qps", "1/s", sv.wallQPS)
	r.setLayer("runtime.peak_rss_mb", "MB", peakRSSMB("/proc/self/status"))
	r.setLayer("atlasd.peak_rss_mb", "MB", sv.rssMB)
	d, err := serveDirect(c.path, qs, sv.n, cfg.cache, r.tr)
	if err != nil {
		return err
	}
	r.setLayer("atlas.compact_peak_heap_mb", "MB", c.peakMB)
	r.setLayer("serve.open_ms", "ms", d.openMS)
	r.setLayer("serve.hit_us_p50", "us", d.hitUS)
	r.setLayer("serve.decode_ms_p50", "ms", d.decodeMS)
	r.setLayer("serve.shard_decodes", "count", float64(d.decodes))
	r.setLayer("serve.hit_ratio", "ratio", d.hitRatio)
	r.setLayer("serve.evictions", "count", float64(d.evictions))
	r.setLayer("atlasd.http_overhead_us", "us", median(sv.closedMS)*1000-d.allUS)
	r.setLayer("loadgen.late_ms", "ms", quantile(sv.lateMS, 0.99))
	return nil
}
