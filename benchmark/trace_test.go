package main

import (
	"testing"
	"time"

	"mmlpt/internal/packet"
	"mmlpt/internal/probe"
	"mmlpt/internal/survey"
	"mmlpt/internal/traceio"
)

// fakeProber answers nothing and counts what it is sent; every call
// takes a millisecond so busy times are visible.
type fakeProber struct{ trace, echo uint64 }

func (f *fakeProber) Probe(uint16, int) *packet.Reply {
	time.Sleep(time.Millisecond)
	f.trace++
	return nil
}

func (f *fakeProber) ProbeBatch(specs []probe.Spec) []*packet.Reply {
	time.Sleep(time.Millisecond)
	f.trace += uint64(len(specs))
	return make([]*packet.Reply, len(specs))
}

func (f *fakeProber) Echo(packet.Addr, uint16) *packet.Reply {
	time.Sleep(time.Millisecond)
	f.echo++
	return nil
}

func (f *fakeProber) EchoBatch(specs []probe.EchoSpec) []*packet.Reply {
	time.Sleep(time.Millisecond)
	f.echo += uint64(len(specs))
	return make([]*packet.Reply, len(specs))
}

func (f *fakeProber) Sent() (uint64, uint64) { return f.trace, f.echo }
func (f *fakeProber) Dst() packet.Addr       { return packet.AddrFrom4(203, 0, 113, 9) }

// TestEchoBoundarySplitsPhases drives the timing wrapper the way a
// multilevel trace does: an IP phase of traceroute probes, then alias
// resolution, which opens with an Echo and goes on with indirect
// probes. Everything from the first Echo on is alias work.
func TestEchoBoundarySplitsPhases(t *testing.T) {
	var check checker
	tr := newTracer(&check)
	inner := &fakeProber{}
	pair := survey.Pair{Src: packet.AddrFrom4(192, 0, 2, 1), Dst: inner.Dst(), HasLB: true}
	p := tr.wrapProber(pair, inner)

	p.ProbeBatch(make([]probe.Spec, 6)) // IP phase: 6 + 1 probes
	p.Probe(1, 2)
	time.Sleep(5 * time.Millisecond) // tracer's own work between phases
	p.Echo(pair.Dst, 1)              // alias phase: 1 + 2 echo, 4 indirect
	p.EchoBatch(make([]probe.EchoSpec, 2))
	p.ProbeBatch(make([]probe.Spec, 4))
	p.Sent() // the survey reads the count when the trace returns

	pt := tr.pairs[pair.Dst]
	if !pt.echoSeen || pt.ipProbes != 7 {
		t.Fatalf("IP phase counted %d probes (echo seen %v), want 7", pt.ipProbes, pt.echoSeen)
	}
	if pt.ipBusy < 2*time.Millisecond || pt.alBusy < 3*time.Millisecond {
		t.Errorf("busy times: IP %v alias %v, want at least 2ms and 3ms", pt.ipBusy, pt.alBusy)
	}
	if gap := pt.postSpan() - pt.alBusy; gap < 5*time.Millisecond {
		t.Errorf("alias self time %v misses the 5ms between the phases", gap)
	}
	if !pt.ipEnd.Before(pt.traceEnd) || pt.start.After(pt.ipEnd) {
		t.Errorf("phase boundaries out of order: start %v ipEnd %v traceEnd %v", pt.start, pt.ipEnd, pt.traceEnd)
	}

	rec := &traceio.SurveyRecord{PairIndex: 0}
	rec.Trace.Dst = pair.Dst.String()
	rec.Trace.Algorithm = survey.AlgoMultilevel.String()
	rec.Trace.Probes = 14
	rec.Trace.AliasProbes = 7
	tr.emitted(rec, time.Now())
	if check.failed != 0 || check.attempted != 2 {
		t.Fatalf("matching record: %d of %d checks failed", check.failed, check.attempted)
	}
	if ip, al := pt.split(); ip != 7 || al != 7 || pt.echoSent != 3 || pt.traceSent != 11 {
		t.Errorf("split %d/%d with %d trace and %d echo packets, want 7/7, 11 and 3", ip, al, pt.traceSent, pt.echoSent)
	}

	// A record whose alias count disagrees with the wrapper fails the run.
	p2 := tr.wrapProber(survey.Pair{Dst: packet.AddrFrom4(203, 0, 113, 10)}, &fakeProber{})
	p2.Probe(1, 1)
	p2.Sent()
	bad := &traceio.SurveyRecord{PairIndex: 1}
	bad.Trace.Dst = "203.0.113.10"
	bad.Trace.Probes = 1
	bad.Trace.AliasProbes = 1
	tr.emitted(bad, time.Now())
	if check.failed != 1 {
		t.Errorf("mismatched record: %d checks failed, want 1", check.failed)
	}
}

func TestUntracedRunInstallsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.add("x", -1, -1, time.Now(), time.Now()); id != -1 {
		t.Errorf("untraced add returned span %d", id)
	}
	tr.checkOutcomes(&survey.Result{})
	if err := tr.write("unused"); err != nil {
		t.Errorf("untraced write: %v", err)
	}
}
