package sbserver

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"sbprivacy/internal/hashx"
)

// OverflowPolicy decides what happens when probes arrive faster than the
// pipeline drains them and the buffer is full.
type OverflowPolicy int

const (
	// OverflowBlock applies backpressure: FullHashes waits for buffer
	// space. No probe is ever lost; the request path slows down instead.
	// This is the default — the threat model's provider wants every probe.
	OverflowBlock OverflowPolicy = iota
	// OverflowDrop sheds load: when the buffer is full the probe is
	// counted in ProbeStats.Dropped and discarded, and the request is
	// served at full speed. The trade the paper's provider would never
	// make, but a capacity-constrained deployment might.
	OverflowDrop
)

// ProbeStats reports the probe pipeline's counters.
type ProbeStats struct {
	// Received counts probes presented to the pipeline.
	Received uint64
	// Dropped counts probes discarded under OverflowDrop.
	Dropped uint64
	// Evicted counts probes rotated out of a capacity-bounded log.
	// Evicted probes were still delivered to sinks.
	Evicted uint64
}

// maxProbeStripes caps the drainer goroutines per server.
const maxProbeStripes = 16

// probeMsg is one queued probe. sinks is the sink list captured at
// record time, so a sink subscribed after a request never observes it —
// Subscribe is a cut-point, as it was when delivery was synchronous.
type probeMsg struct {
	seq   uint64
	probe Probe
	sinks []ProbeSink
}

// seqProbe is a logged probe tagged with its global record order.
type seqProbe struct {
	seq   uint64
	probe Probe
}

// probeStripe is one independently drained lane of the pipeline with its
// own queue and log segment.
//
// Recorders append to queue under qmu. Delivery — by the stripe's
// drainer goroutine, by flush, or by a recorder after close — always
// goes through drain, which holds drainMu while it swaps the whole queue
// out and delivers it; holding drainMu across delivery is what keeps one
// stripe's probes, and so one cookie's, in FIFO order whoever drains.
// Two slices circulate: the queue recorders fill and the batch being
// delivered, which becomes the spare the next swap installs.
type probeStripe struct {
	qmu     sync.Mutex
	queue   []probeMsg
	limit   int  // queue bound; a full queue blocks or drops
	parked  bool // the drainer waits on wake
	stopped bool // close was called: recorders deliver inline
	waiters int  // OverflowBlock recorders waiting on space

	// wake and space are 1-slot signals. wake carries one token per
	// park of the drainer; space tells one waiting recorder that a
	// drain freed the queue, and that recorder passes it on while room
	// and waiters remain.
	wake  chan struct{}
	space chan struct{}
	done  chan struct{}

	drainMu sync.Mutex
	spare   []probeMsg // guarded by drainMu

	mu      sync.Mutex // guards the log; held briefly by drain and readers
	log     []seqProbe
	start   int // ring head when the segment is at capacity
	evicted uint64
}

// appendLog adds a delivered batch to the stripe's log segment, rotating
// when the per-stripe capacity (the pipeline's logCap) is reached.
func (st *probeStripe) appendLog(batch []probeMsg, logCap int) {
	st.mu.Lock()
	for i := range batch {
		sp := seqProbe{seq: batch[i].seq, probe: batch[i].probe}
		if logCap > 0 && len(st.log) == logCap {
			st.log[st.start] = sp
			st.start = (st.start + 1) % logCap
			st.evicted++
		} else {
			st.log = append(st.log, sp)
		}
	}
	st.mu.Unlock()
}

// signal puts a token on a 1-slot channel unless one is already there.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// probePipeline decouples probe recording from the full-hash serving
// path: FullHashes appends to a bounded per-stripe queue and returns; a
// background drainer per stripe swaps the queue out in batches, appends
// them to the (optionally rotating) log and fans out to subscribed
// sinks. The serving path therefore never blocks on a slow sink. Flush
// does not hand off to the drainers: it drains every stripe itself, on
// the calling goroutine.
//
// The pipeline is striped by client cookie so a fleet of clients doesn't
// serialize on one queue: probes from the same client stay FIFO (the
// ordering the tracking and correlation machinery depends on), while
// different clients ride different lanes. A global sequence number
// assigned at record time lets snapshot() restore the exact record
// order across lanes.
type probePipeline struct {
	stripes []probeStripe
	policy  OverflowPolicy
	logCap  int // per-stripe log bound; 0 = unbounded

	// seq doubles as the received counter: it is incremented once per
	// recorded probe.
	seq     atomic.Uint64
	dropped atomic.Uint64

	// sinks is a copy-on-write slice loaded lock-free on record.
	sinks  atomic.Pointer[[]ProbeSink]
	sinkMu sync.Mutex // serializes Subscribe writers
}

func newProbePipeline(buffer, logCap int, policy OverflowPolicy) *probePipeline {
	nstripes := runtime.GOMAXPROCS(0)
	if nstripes > maxProbeStripes {
		nstripes = maxProbeStripes
	}
	if nstripes < 1 {
		nstripes = 1
	}
	perStripe := buffer / nstripes
	if perStripe < 1 {
		perStripe = 1
	}
	p := &probePipeline{
		stripes: make([]probeStripe, nstripes),
		policy:  policy,
		logCap:  logCap,
	}
	for i := range p.stripes {
		st := &p.stripes[i]
		st.limit = perStripe
		st.wake = make(chan struct{}, 1)
		st.space = make(chan struct{}, 1)
		st.done = make(chan struct{})
		go p.run(st)
	}
	return p
}

// stripeFor maps a client cookie to its lane (FNV-1a).
func (p *probePipeline) stripeFor(clientID string) *probeStripe {
	if len(p.stripes) == 1 {
		return &p.stripes[0]
	}
	return &p.stripes[hashx.FNV32a(clientID)%uint32(len(p.stripes))]
}

// run is a stripe's drainer: it drains while the queue is non-empty and
// parks on wake when it is empty, until close stops it.
func (p *probePipeline) run(st *probeStripe) {
	defer close(st.done)
	for {
		st.qmu.Lock()
		if len(st.queue) == 0 {
			if st.stopped {
				st.qmu.Unlock()
				return
			}
			st.parked = true
			st.qmu.Unlock()
			<-st.wake
			continue
		}
		st.qmu.Unlock()
		p.drain(st)
	}
}

// drain delivers everything queued on st, in queue order, to the log
// and to the sinks captured when each probe was recorded.
func (p *probePipeline) drain(st *probeStripe) {
	st.drainMu.Lock()
	defer st.drainMu.Unlock()
	st.qmu.Lock()
	batch := st.queue
	if len(batch) == 0 {
		st.qmu.Unlock()
		return
	}
	st.queue, st.spare = st.spare[:0], nil
	if st.waiters > 0 {
		signal(st.space)
	}
	st.qmu.Unlock()
	p.deliver(st, batch) //sbcheck:ignore lockscope per-stripe FIFO contract: delivery runs under drainMu so the drainer, flush and post-close recorders hand one cookie's probes to the sinks in record order
	// Drop the probes' references before the slice is reused.
	clear(batch)
	st.spare = batch[:0]
}

// deliver appends a batch to the stripe's log segment and fans each
// probe out to its sinks.
func (p *probePipeline) deliver(st *probeStripe, batch []probeMsg) {
	st.appendLog(batch, p.logCap)
	for i := range batch {
		for _, sink := range batch[i].sinks {
			sink.Observe(batch[i].probe)
		}
	}
}

// record hands a probe to the pipeline. Under OverflowBlock a recorder
// that finds its stripe's queue full waits, outside every lock, for a
// drain to free space; under OverflowDrop it discards the probe. After
// close it delivers synchronously, so a drained server still observes
// everything.
func (p *probePipeline) record(probe Probe) {
	msg := probeMsg{seq: p.seq.Add(1), probe: probe}
	if sinks := p.sinks.Load(); sinks != nil {
		msg.sinks = *sinks
	}
	st := p.stripeFor(probe.ClientID)
	st.qmu.Lock()
	for !st.stopped && len(st.queue) >= st.limit {
		if p.policy == OverflowDrop {
			st.qmu.Unlock()
			p.dropped.Add(1)
			return
		}
		st.waiters++
		st.qmu.Unlock()
		<-st.space
		st.qmu.Lock()
		st.waiters--
	}
	st.queue = append(st.queue, msg)
	stopped := st.stopped
	if st.waiters > 0 && (stopped || len(st.queue) < st.limit) {
		signal(st.space) // pass the space signal down the waiter chain
	}
	wake := st.parked // never set once stopped
	st.parked = false
	st.qmu.Unlock()
	if stopped {
		p.drain(st)
	} else if wake {
		signal(st.wake)
	}
}

// flush blocks until every probe recorded before the call has been
// delivered to the log and all sinks. It drains each stripe on the
// calling goroutine: a batch the drainer is already delivering finishes
// first (drainMu), then whatever is still queued is delivered here.
func (p *probePipeline) flush() {
	for i := range p.stripes {
		p.drain(&p.stripes[i])
	}
}

// close stops the drainers; each drains what is queued before it
// exits, and later recorders deliver inline. When wait is true, close
// returns only once everything recorded before it was delivered — the
// flush-on-Close guarantee.
func (p *probePipeline) close(wait bool) {
	for i := range p.stripes {
		st := &p.stripes[i]
		st.qmu.Lock()
		st.stopped = true
		wake := st.parked
		st.parked = false
		st.qmu.Unlock()
		if wake {
			signal(st.wake)
		}
	}
	if wait {
		// A post-close recorder may have swapped pre-close probes out
		// of the queue before the drainer saw them; flush waits for its
		// batch too.
		p.flush()
		for i := range p.stripes {
			<-p.stripes[i].done
		}
	}
}

// snapshot returns the logged probes in record order (by sequence
// number). With a bounded log each stripe retains up to the bound, and
// the merged result is trimmed to the newest logCap probes overall, so
// the window is exact in record order.
func (p *probePipeline) snapshot() []Probe {
	var ordered []seqProbe
	for i := range p.stripes {
		st := &p.stripes[i]
		st.mu.Lock()
		ordered = append(ordered, st.log[st.start:]...)
		ordered = append(ordered, st.log[:st.start]...)
		st.mu.Unlock()
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].seq < ordered[j].seq })
	if p.logCap > 0 && len(ordered) > p.logCap {
		ordered = ordered[len(ordered)-p.logCap:]
	}
	out := make([]Probe, len(ordered))
	for i, sp := range ordered {
		out[i] = sp.probe
	}
	return out
}

func (p *probePipeline) subscribe(sink ProbeSink) {
	p.sinkMu.Lock()
	defer p.sinkMu.Unlock()
	var cur []ProbeSink
	if old := p.sinks.Load(); old != nil {
		cur = *old
	}
	next := make([]ProbeSink, 0, len(cur)+1)
	next = append(next, cur...)
	next = append(next, sink)
	p.sinks.Store(&next)
}

func (p *probePipeline) stats() ProbeStats {
	var evicted uint64
	for i := range p.stripes {
		p.stripes[i].mu.Lock()
		evicted += p.stripes[i].evicted
		p.stripes[i].mu.Unlock()
	}
	return ProbeStats{
		Received: p.seq.Load(),
		Dropped:  p.dropped.Load(),
		Evicted:  evicted,
	}
}
