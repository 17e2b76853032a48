package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/survey"
	"mmlpt/internal/traceio"
)

// span is one timed call into a layer, as written to the span file.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Pair   int    `json:"pair"` // -1 when the span belongs to no pair
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
}

// tracer keeps the spans of a traced run in memory, keyed to the run's
// start, and the per-pair accounting its prober and sink wrappers
// collect. Every hook it installs is a public extension point of the
// program (RunConfig.WrapProber, the Sink interface), so the program
// itself runs unchanged. A nil *tracer is an untraced run: every method
// is then a no-op and no wrapper is installed.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	pairs map[packet.Addr]*pairTrace // keyed by destination: unique per pair
	done  []*pairTrace               // in emit order
	check *checker
}

func newTracer(check *checker) *tracer {
	return &tracer{t0: time.Now(), pairs: make(map[packet.Addr]*pairTrace), check: check}
}

func (t *tracer) us(at time.Time) int64 { return at.Sub(t.t0).Microseconds() }

// add records a finished span and returns its id (-1 when untraced).
func (t *tracer) add(name string, parent, pair int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Pair: pair, Start: t.us(start), End: t.us(end)})
	return id
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pairTrace is one pair's accounting. Its prober wrapper fills it on the
// worker goroutine tracing the pair; the collector goroutine reads it
// once the pair's record is emitted, which the survey's ordered fan-in
// sequences after the trace returned.
type pairTrace struct {
	inner probe.Prober

	start time.Time // the survey wrapped the pair's prober: tracing begins
	// ipEnd is the end of the last probe call before the first Echo:
	// only alias resolution sends Echo probes, so that is where the IP
	// phase ends and the alias phase begins.
	ipEnd time.Time
	// traceEnd is the last Sent call: the survey reads the pair's probe
	// count right after the tracer returns.
	traceEnd time.Time
	emit     time.Time // the record reached the first sink

	multilevel bool // the record came from the multilevel tracer
	echoSeen   bool
	ipProbes   uint64 // probes sent before the first Echo
	ipBusy     time.Duration
	alBusy     time.Duration

	// traceSent and echoSent are the prober's final counts, read when
	// the record is emitted; the prober itself is dropped then.
	traceSent, echoSent uint64
}

// ipSpan is the IP phase: trace start to the end of its last probe.
func (p *pairTrace) ipSpan() time.Duration { return p.ipEnd.Sub(p.start) }

// postSpan runs from the IP phase's end to the trace's end: alias
// resolution for a multilevel pair, the tracer's own wrap-up otherwise.
func (p *pairTrace) postSpan() time.Duration { return p.traceEnd.Sub(p.ipEnd) }

// pairSpan is the whole trace.
func (p *pairTrace) pairSpan() time.Duration { return p.traceEnd.Sub(p.start) }

// split returns the probes sent in the IP and alias phases.
func (p *pairTrace) split() (ip, alias uint64) {
	total := p.traceSent + p.echoSent
	if !p.echoSeen {
		return total, 0
	}
	return p.ipProbes, total - p.ipProbes
}

// timedProber times every probe call of one pair and splits its probes
// at the first Echo. It preserves probe semantics exactly: each call is
// forwarded unchanged and in order.
type timedProber struct {
	inner probe.Prober
	pt    *pairTrace
}

func (p *timedProber) Probe(flowID uint16, ttl int) *packet.Reply {
	t0 := time.Now()
	r := p.inner.Probe(flowID, ttl)
	p.done(t0)
	return r
}

func (p *timedProber) ProbeBatch(specs []probe.Spec) []*packet.Reply {
	t0 := time.Now()
	r := p.inner.ProbeBatch(specs)
	p.done(t0)
	return r
}

func (p *timedProber) Echo(addr packet.Addr, seq uint16) *packet.Reply {
	p.echo()
	t0 := time.Now()
	r := p.inner.Echo(addr, seq)
	p.done(t0)
	return r
}

func (p *timedProber) EchoBatch(specs []probe.EchoSpec) []*packet.Reply {
	p.echo()
	t0 := time.Now()
	r := p.inner.EchoBatch(specs)
	p.done(t0)
	return r
}

func (p *timedProber) Sent() (uint64, uint64) {
	p.pt.traceEnd = time.Now()
	return p.inner.Sent()
}

func (p *timedProber) Dst() packet.Addr { return p.inner.Dst() }

func (p *timedProber) echo() {
	if !p.pt.echoSeen {
		p.pt.echoSeen = true
		p.pt.ipProbes = probe.TotalSent(p.inner)
	}
}

func (p *timedProber) done(t0 time.Time) {
	now := time.Now()
	if p.pt.echoSeen {
		p.pt.alBusy += now.Sub(t0)
		return
	}
	p.pt.ipBusy += now.Sub(t0)
	p.pt.ipEnd = now
}

// wrapProber is the RunConfig.WrapProber hook of a traced run.
func (t *tracer) wrapProber(pair survey.Pair, p probe.Prober) probe.Prober {
	now := time.Now()
	pt := &pairTrace{inner: p, start: now, ipEnd: now, traceEnd: now}
	t.mu.Lock()
	t.pairs[pair.Dst] = pt
	t.mu.Unlock()
	return &timedProber{inner: p, pt: pt}
}

// emitted stamps a record's arrival at the sinks and checks the pair's
// probe split against the record.
func (t *tracer) emitted(rec *traceio.SurveyRecord, at time.Time) {
	dst, err := packet.ParseAddr(rec.Trace.Dst)
	t.mu.Lock()
	pt := t.pairs[dst]
	t.mu.Unlock()
	if !t.check.ok(err == nil && pt != nil, "pair %d: record for a pair the prober wrapper never saw", rec.PairIndex) {
		return
	}
	pt.emit = at
	pt.multilevel = rec.Trace.Algorithm == survey.AlgoMultilevel.String()
	pt.traceSent, pt.echoSent = pt.inner.Sent()
	pt.inner = nil
	t.done = append(t.done, pt)
	ip, al := pt.split()
	t.check.ok(ip+al == rec.Trace.Probes && al == rec.Trace.AliasProbes,
		"pair %d: wrapper counted %d+%d probes, record says %d (%d alias)",
		rec.PairIndex, ip, al, rec.Trace.Probes, rec.Trace.AliasProbes)
	pair := t.add("pair", -1, rec.PairIndex, pt.start, pt.traceEnd)
	t.add("pair.ip", pair, rec.PairIndex, pt.start, pt.ipEnd)
	t.add("pair.post", pair, rec.PairIndex, pt.ipEnd, pt.traceEnd)
	t.add("pair.reorder_wait", pair, rec.PairIndex, pt.traceEnd, at)
}

// checkOutcomes ties the wrapper's probe split to the tracer's own
// split, pair by pair: a multilevel pair's IP phase must have sent
// exactly core.Result.TraceProbes and its alias phase AliasProbes.
func (t *tracer) checkOutcomes(res *survey.Result) {
	if t == nil {
		return
	}
	for _, o := range res.Outcomes {
		t.mu.Lock()
		pt := t.pairs[o.Pair.Dst]
		t.mu.Unlock()
		if !t.check.ok(pt != nil, "pair %d: no wrapper accounting", o.PairIndex) {
			continue
		}
		ip, al := pt.split()
		wantIP, wantAl := o.Probes, uint64(0)
		if o.ML != nil {
			wantIP, wantAl = o.ML.TraceProbes, o.ML.AliasProbes
		}
		t.check.ok(ip == wantIP && al == wantAl,
			"pair %d: wrapper split %d/%d, tracer split %d/%d", o.PairIndex, ip, al, wantIP, wantAl)
	}
}

// timedSink times one sink's Emit and Close calls.
type timedSink struct {
	name  string
	inner survey.Sink
	t     *tracer
	first bool // stamps each record's arrival
	busy  time.Duration
}

func (s *timedSink) Emit(rec *traceio.SurveyRecord) error {
	if s.first {
		s.t.emitted(rec, time.Now())
	}
	start := time.Now()
	err := s.inner.Emit(rec)
	end := time.Now()
	s.busy += end.Sub(start)
	s.t.add("sink."+s.name, -1, rec.PairIndex, start, end)
	return err
}

func (s *timedSink) Close() error {
	start := time.Now()
	err := s.inner.Close()
	end := time.Now()
	s.busy += end.Sub(start)
	s.t.add("sink."+s.name+".close", -1, -1, start, end)
	return err
}

// checker counts checked operations and failures. Every correctness
// check of the run goes through ok, so attempted and failed in the
// result are exactly the operations checked and those that failed.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

// maxReported bounds how many failures are described on standard error.
const maxReported = 20

func (c *checker) ok(cond bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !cond {
		c.failed++
		if c.failed <= maxReported {
			fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
		}
	}
	return cond
}
