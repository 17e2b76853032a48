package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"mmlpt/internal/alias"
	"mmlpt/internal/atlas"
	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/core"
	"mmlpt/internal/survey"
	"mmlpt/internal/traceio"
)

// surveyPart is one survey.Run of a pipeline: a universe and the run
// configuration the experiments package planned for it.
type surveyPart struct {
	u  *survey.Universe
	rc survey.RunConfig
}

// surveyOut is what the survey stage of a pipeline produced.
type surveyOut struct {
	pairs     int
	probes    uint64
	run       time.Duration // survey.Run with its sinks, closes included, steal-free
	write     time.Duration // Atlas.Save of the one-pass snapshot, median
	full      string        // the one-pass snapshot
	deltas    []string      // the published delta snapshots, in order
	snapBytes int64
	addrs     int
	results   []*survey.Result
	mem       memDelta // runtime work of the survey

	sinkBusy map[string]time.Duration // traced runs only
}

// runSurveys traces every part through the sinks cmd/survey wires for
// `-out -atlas -atlas-publish-every`: the JSONL record log, the record
// aggregate and an atlas publishing a delta every publishEvery records.
// All parts feed the same sinks, one after another. It then saves the
// one-pass snapshot and checks what was written: the record log holds
// every pair once, in pair order; the aggregate agrees with the results;
// every snapshot re-opens through serve.Open with the pair count it
// should hold.
func runSurveys(dir string, parts []surveyPart, deltas int, tr *tracer, check *checker) (*surveyOut, error) {
	out := &surveyOut{full: filepath.Join(dir, "full.atlas")}
	var want []int // pair indices in the order the log must hold them
	for _, p := range parts {
		jobs := survey.JobPairs(p.u, p.rc)
		if p.rc.SpanCount > 0 {
			jobs = jobs[p.rc.SpanStart : p.rc.SpanStart+p.rc.SpanCount]
		}
		want = append(want, jobs...)
	}
	publishEvery := (len(want) + deltas - 1) / deltas
	logPath := filepath.Join(dir, "records.jsonl")
	jsonl := survey.NewJSONLSink(logPath)
	agg := survey.NewAggregateSink()
	atl := survey.NewAtlasSink(atlas.Options{})
	atl.PublishDeltas(filepath.Join(dir, "delta.atlas"), publishEvery)
	sinks := []survey.Sink{jsonl, agg, atl}
	var timed []*timedSink
	if tr != nil {
		for i, name := range []string{"jsonl", "aggregate", "atlas"} {
			ts := &timedSink{name: name, inner: sinks[i], t: tr, first: i == 0}
			timed = append(timed, ts)
			sinks[i] = ts
		}
	}

	before := readMem()
	watch := startWatch()
	for _, p := range parts {
		rc := p.rc
		rc.Sinks = sinks
		if tr != nil {
			rc.WrapProber = tr.wrapProber
		}
		res, err := survey.Run(p.u, rc)
		if err != nil {
			return nil, fmt.Errorf("survey: %w", err)
		}
		tr.checkOutcomes(res)
		out.results = append(out.results, res)
		out.pairs += len(res.Outcomes)
		out.probes += res.TotalProbes
	}
	for _, s := range sinks {
		if err := s.Close(); err != nil {
			return nil, fmt.Errorf("closing sink: %w", err)
		}
	}
	out.run = watch.own()
	out.mem = memSince(before)
	tr.add("survey", -1, -1, watch.start, time.Now())
	if tr != nil {
		out.sinkBusy = make(map[string]time.Duration)
		for _, ts := range timed {
			out.sinkBusy[ts.name] = ts.busy
		}
	}
	out.deltas = atl.Published()

	// The snapshot write is timed over repeated saves of the same atlas:
	// each save does the whole encode and fsync again, and every copy
	// must come out byte-identical to the first.
	var writes series
	first := time.Now()
	for rep := 0; enoughReps(rep, first); rep++ {
		runtime.GC() // every save starts from a collected heap
		path := out.full
		if rep > 0 {
			path = fmt.Sprintf("%s.%d", out.full, rep)
		}
		if err := writes.run(tr, "atlas.save", func() error { return atl.Atlas.Save(path) }); err != nil {
			return nil, fmt.Errorf("saving snapshot: %w", err)
		}
		if rep > 0 {
			checkSameFile(path, out.full, check)
			os.Remove(path)
		}
	}
	out.write = time.Duration(writes.median() * float64(time.Second))
	st, err := os.Stat(out.full)
	if err != nil {
		return nil, err
	}
	out.snapBytes = st.Size()

	checkRecordLog(logPath, want, check)
	check.ok(agg.Agg.Records == out.pairs && agg.Agg.TotalProbes == out.probes,
		"aggregate holds %d records and %d probes, the survey traced %d pairs and %d probes",
		agg.Agg.Records, agg.Agg.TotalProbes, out.pairs, out.probes)
	out.addrs = checkSnapshot(out.full, out.pairs, check)
	n := 0
	for i, d := range out.deltas {
		wantPairs := publishEvery
		if i == len(out.deltas)-1 {
			wantPairs = out.pairs - n
		}
		checkSnapshot(d, wantPairs, check)
		n += wantPairs
	}
	return out, nil
}

// checkRecordLog reads the record log back: one record per traced pair,
// in the order the survey must emit them.
func checkRecordLog(path string, want []int, check *checker) {
	f, err := os.Open(path)
	if !check.ok(err == nil, "record log: %v", err) {
		return
	}
	defer f.Close()
	i := 0
	err = traceio.DecodeSurveyRecords(f, func(rec *traceio.SurveyRecord) error {
		check.ok(i < len(want) && rec.PairIndex == want[i], "record %d has pair index %d, out of pair order", i, rec.PairIndex)
		i++
		return nil
	})
	check.ok(err == nil && i == len(want), "record log holds %d records (%v), want %d", i, err, len(want))
}

// checkSnapshot re-opens a snapshot through the serving layer and checks
// its pair count. It returns the snapshot's node (address) count.
func checkSnapshot(path string, pairs int, check *checker) int {
	svc, err := serve.Open(path, serve.Options{})
	if !check.ok(err == nil, "serve.Open %s: %v", path, err) {
		return 0
	}
	defer svc.Close()
	st, err := svc.Stats()
	check.ok(err == nil && st.Pairs == pairs, "%s holds %d pairs (%v), want %d", filepath.Base(path), st.Pairs, err, pairs)
	return st.Nodes
}

// compactOut is what the compaction stage produced.
type compactOut struct {
	path    string
	elapsed time.Duration // median
	peakMB  float64       // heap growth while compacting, traced runs only
	mem     memDelta      // runtime work of the first compaction
}

// compactDeltas compacts the published deltas — the first as the base —
// into one snapshot, repeatedly, and checks each result is
// byte-identical to the one-pass snapshot of the same records.
func compactDeltas(dir string, s *surveyOut, tr *tracer, check *checker) (*compactOut, error) {
	out := &compactOut{path: filepath.Join(dir, "compacted.atlas")}
	var times series
	first := time.Now()
	for rep := 0; enoughReps(rep, first); rep++ {
		// Start from a collected heap, so neither a compaction's time nor
		// its peak carries garbage an earlier stage left behind.
		runtime.GC()
		var stop func() uint64
		base, before := heapObjectBytes(), readMem()
		if rep == 0 && tr != nil {
			stop = watchMax(heapObjects)
		}
		err := times.run(tr, "atlas.compact", func() error {
			return atlas.Compact(out.path, s.deltas[0], s.deltas[1:], atlas.Options{})
		})
		if rep == 0 {
			out.mem = memSince(before)
		}
		if stop != nil {
			out.peakMB = float64(stop()-base) / mb
		}
		if err != nil {
			return nil, fmt.Errorf("compact: %w", err)
		}
		checkSameFile(out.path, s.full, check)
	}
	out.elapsed = time.Duration(times.median() * float64(time.Second))
	return out, nil
}

// A snapshot write or a compaction is repeated at least minReps times
// and until minRepTime has passed, at most maxReps times.
const (
	minReps    = 5
	maxReps    = 400
	minRepTime = 2 * time.Second
)

// enoughReps reports whether repetition rep, of a series begun at
// first, should still run.
func enoughReps(rep int, first time.Time) bool {
	return rep < minReps || (rep < maxReps && time.Since(first) < minRepTime)
}

// checkSameFile checks two files hold the same bytes.
func checkSameFile(path, want string, check *checker) {
	a, errA := os.ReadFile(path)
	b, errB := os.ReadFile(want)
	check.ok(errA == nil && errB == nil && bytes.Equal(a, b),
		"%s (%d bytes) differs from %s (%d bytes)", filepath.Base(path), len(a), filepath.Base(want), len(b))
}

// watchMax samples a runtime/metrics value every millisecond until the
// returned stop function is called, which reports the largest reading.
func watchMax(name string) (stop func() uint64) {
	sample := []metrics.Sample{{Name: name}}
	var peak uint64
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > peak {
			peak = v
		}
	}
	read()
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() uint64 {
		close(quit)
		wg.Wait()
		read()
		return peak
	}
}

// watchLiveHeap records the live heap each GC cycle leaves until the
// returned stop function is called, which reports the largest reading.
// The live heap changes only when a cycle ends, so rather than sampling
// it on a ticker, which would wake the process a thousand times a
// second through every measured stage, a finalizer re-armed on every
// cycle reads it once per cycle.
func watchLiveHeap() (stop func() uint64) {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var mu sync.Mutex
	var peak uint64
	stopped := false
	read := func() {
		metrics.Read(sample)
		peak = max(peak, sample[0].Value.Uint64())
	}
	var arm func(*gcTick)
	arm = func(t *gcTick) {
		runtime.SetFinalizer(t, func(t *gcTick) {
			mu.Lock()
			defer mu.Unlock()
			if !stopped {
				read()
				arm(t)
			}
		})
	}
	mu.Lock()
	read()
	mu.Unlock()
	arm(new(gcTick))
	return func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		stopped = true
		read()
		return peak
	}
}

// gcTick is the object whose finalizer runs once per GC cycle. It holds
// a pointer so the allocator does not batch it with other tiny objects,
// which would keep it from being finalized.
type gcTick struct{ _ *byte }

// heapObjects is the heap's object bytes: live, and dead but not yet
// swept.
const heapObjects = "/memory/classes/heap/objects:bytes"

func heapObjectBytes() uint64 {
	sample := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

const mb = 1 << 20

// partitionReplay re-runs the final round of alias resolution —
// Resolver.Partition over core.CandidateGroups with the observations the
// trace ended with — for every multilevel pair, timing it and checking
// it reproduces the trace's final alias sets.
func partitionReplay(results []*survey.Result, check *checker) (elapsed time.Duration, candidatePairs int) {
	for _, res := range results {
		for _, o := range res.Outcomes {
			if o.ML == nil {
				continue
			}
			groups := core.CandidateGroups(o.ML.IP.Graph, o.Pair.Dst)
			r := alias.NewResolver(nil, o.ML.Obs)
			start := time.Now()
			var sets []alias.Set
			for _, g := range groups {
				sets = append(sets, r.Partition(g)...)
				candidatePairs += len(g) * (len(g) - 1) / 2
			}
			elapsed += time.Since(start)
			check.ok(sameSets(sets, o.ML.Sets), "pair %d: replayed partition differs from the trace's final alias sets", o.PairIndex)
		}
	}
	return elapsed, candidatePairs
}

func sameSets(a, b []alias.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Outcome != b[i].Outcome || len(a[i].Addrs) != len(b[i].Addrs) {
			return false
		}
		for j := range a[i].Addrs {
			if a[i].Addrs[j] != b[i].Addrs[j] {
				return false
			}
		}
	}
	return true
}

// memDelta is the runtime's allocation and GC work between two readings.
type memDelta struct {
	allocMB  float64
	gcCycles uint32
	pauseMS  float64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		gcCycles: after.NumGC - before.NumGC,
		pauseMS:  float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}
