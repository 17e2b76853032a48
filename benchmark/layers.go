package main

import (
	"time"
)

// perLayer lists every per-layer metric a traced run reports, in the
// order of the layers: prober, trace state machines, alias resolution,
// survey fan-in, sinks, atlas write and compaction, serving, HTTP and
// load generation, Go runtime, and the CPU time the virtual machine's
// host stole during the measured part. A workload that does not exercise a
// layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"probe.trace_probes", "count"},
	{"probe.echo_probes", "count"},
	{"probe.busy_s", "s"},
	{"probe.ns_per_probe", "ns"},
	{"mda.self_s", "s"},
	{"mdalite.self_s", "s"},
	{"alias.self_s", "s"},
	{"alias.probes_per_pair", "count"},
	{"alias.share", "ratio"},
	{"alias.partition_s", "s"},
	{"alias.candidate_pairs", "count"},
	{"survey.pair_ms_p50", "ms"},
	{"survey.pair_ms_tail", "ms"},
	{"survey.reorder_wait_s", "s"},
	{"sink.jsonl.busy_s", "s"},
	{"sink.aggregate.busy_s", "s"},
	{"sink.atlas.busy_s", "s"},
	{"atlas.write_s", "s"},
	{"atlas.snapshot_bytes", "B"},
	{"atlas.compact_peak_heap_mb", "MB"},
	{"serve.open_ms", "ms"},
	{"serve.hit_us_p50", "us"},
	{"serve.decode_ms_p50", "ms"},
	{"serve.shard_decodes", "count"},
	{"serve.hit_ratio", "ratio"},
	{"serve.evictions", "count"},
	{"serve.p99_ms", "ms"},
	{"serve.qps_per_cpu", "1/s"},
	{"atlasd.http_overhead_us", "us"},
	{"atlasd.peak_rss_mb", "MB"},
	{"loadgen.late_ms", "ms"},
	{"loadgen.closed_qps", "1/s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.peak_rss_mb", "MB"},
	{"traced.pairs_per_s", "1/s"},
	{"host.steal_s", "s"},
}

// layerTotals sums the per-pair accounting of a traced survey.
type layerTotals struct {
	pairs                   int
	traceProbes, echoProbes uint64
	aliasProbes             uint64
	probeBusy               time.Duration
	mdaSelf, liteSelf       time.Duration
	aliasSelf               time.Duration
	pairTime, reorderWait   time.Duration
	pairMS                  []float64
}

// totals splits every pair's trace into its layers. An MDA pair's whole
// trace minus its probe calls is mda self time. A multilevel pair's IP
// phase minus its probe calls is mdalite self time, and the rest of the
// trace — from the end of the IP phase's last probe to the trace's end,
// minus the alias phase's probe calls — is alias self time.
func totals(pairs []*pairTrace) layerTotals {
	var t layerTotals
	for _, p := range pairs {
		t.pairs++
		t.traceProbes += p.traceSent
		t.echoProbes += p.echoSent
		_, al := p.split()
		t.aliasProbes += al
		t.probeBusy += p.ipBusy + p.alBusy
		if p.multilevel {
			t.liteSelf += selfTime(p.ipSpan(), p.ipBusy)
			t.aliasSelf += selfTime(p.postSpan(), p.alBusy)
		} else {
			t.mdaSelf += selfTime(p.pairSpan(), p.ipBusy+p.alBusy)
		}
		t.pairTime += p.pairSpan()
		t.reorderWait += p.emit.Sub(p.traceEnd)
		t.pairMS = append(t.pairMS, float64(p.pairSpan())/float64(time.Millisecond))
	}
	return t
}

// surveyLayers reports the per-layer metrics of a traced survey.
func (r *run) surveyLayers(s *surveyOut) {
	t := totals(r.tr.done)
	probes := t.traceProbes + t.echoProbes
	r.setLayer("probe.trace_probes", "count", float64(t.traceProbes))
	r.setLayer("probe.echo_probes", "count", float64(t.echoProbes))
	r.setLayer("probe.busy_s", "s", t.probeBusy.Seconds())
	if probes > 0 {
		r.setLayer("probe.ns_per_probe", "ns", float64(t.probeBusy.Nanoseconds())/float64(probes))
	}
	r.setLayer("mda.self_s", "s", t.mdaSelf.Seconds())
	r.setLayer("mdalite.self_s", "s", t.liteSelf.Seconds())
	r.setLayer("alias.self_s", "s", t.aliasSelf.Seconds())
	if t.pairs > 0 {
		r.setLayer("alias.probes_per_pair", "count", float64(t.aliasProbes)/float64(t.pairs))
	}
	if t.pairTime > 0 {
		r.setLayer("alias.share", "ratio", t.aliasSelf.Seconds()/t.pairTime.Seconds())
	}
	part, cands := partitionReplay(s.results, &r.check)
	r.setLayer("alias.partition_s", "s", part.Seconds())
	r.setLayer("alias.candidate_pairs", "count", float64(cands))
	r.setLayer("survey.pair_ms_p50", "ms", median(t.pairMS))
	r.setLayer("survey.pair_ms_tail", "ms", tail(t.pairMS))
	r.setLayer("survey.reorder_wait_s", "s", t.reorderWait.Seconds())
	for name, busy := range s.sinkBusy {
		r.setLayer("sink."+name+".busy_s", "s", busy.Seconds())
	}
	r.setLayer("atlas.write_s", "s", s.write.Seconds())
	r.setLayer("atlas.snapshot_bytes", "B", float64(s.snapBytes))
	r.setLayer("traced.pairs_per_s", "1/s", float64(s.pairs)/s.run.Seconds())
}

// runtimeLayers reports the Go runtime's work over the measured stage.
func (r *run) runtimeLayers(m memDelta) {
	r.setLayer("runtime.alloc_mb", "MB", m.allocMB)
	r.setLayer("runtime.gc_cycles", "count", float64(m.gcCycles))
	r.setLayer("runtime.gc_pause_ms", "ms", m.pauseMS)
}
