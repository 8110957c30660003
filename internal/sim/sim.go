// Package sim is a deterministic discrete-event simulation kernel.
//
// All network executions in this repository — ABE, ABD, fully asynchronous
// and synchronous — run on this kernel. Events are closures scheduled at
// virtual instants; the kernel executes them in time order with a
// deterministic tie-break (insertion sequence), so a run is a pure function
// of the initial schedule and the random seed. That determinism is what
// makes the paper's expected-complexity claims measurable: every data point
// is reproducible from (parameters, seed).
//
// # Scheduling internals
//
// The pending-event set is an intrusive 4-ary min-heap ordered by
// (instant, insertion sequence) and stored in a single value slice; the
// slice doubles as the event pool, so steady-state scheduling allocates
// nothing. A calendar queue was measured against it up to 10⁶ nodes and
// never won, so the heap is the only implementation.
//
// Two API tiers sit on top of the heap:
//
//   - AtFunc / AfterFunc / AtArg — the ticketless fast path. No per-event
//     allocation at all; use these whenever the caller never cancels
//     (message deliveries, self-rescheduling tick loops, fault timelines).
//   - At / After — allocate one *Ticket so the event can be cancelled
//     later. Cancellation marks the entry dead in place; dead entries are
//     skipped on pop and compacted away wholesale once they outnumber the
//     live ones, so cancel-heavy workloads (ARQ retransmit timers) cannot
//     bloat the schedule.
//
// Pending() is O(1): the heap tracks the live-event count directly.
package sim

import (
	"errors"
	"fmt"
	"slices"

	"abenet/internal/simtime"
)

// ErrStopped is returned by Run when the simulation was halted by Stop
// before reaching its horizon or draining its schedule.
var ErrStopped = errors.New("sim: stopped")

// ErrMaxEvents is returned (wrapped, with the budget and the virtual time
// it was hit at) by Run when more than maxEvents events execute. It is the
// kernel's livelock guard; match it with errors.Is to distinguish a
// runaway protocol from other run failures.
var ErrMaxEvents = errors.New("sim: event budget exceeded (possible livelock)")

// Handler is a scheduled piece of work. It runs at its scheduled virtual
// instant and may schedule further events.
type Handler func()

// ArgHandler is a scheduled piece of work that receives a small argument at
// execution time. It exists so hot paths can reuse one long-lived func value
// (typically a method value) across many events instead of allocating a
// fresh closure per event — see Kernel.AtArg.
type ArgHandler func(arg uint64)

// event is one entry in the pending-event set. Events are stored by value
// inside the heap slice; they are never heap-allocated
// individually.
type event struct {
	at     simtime.Time
	seq    uint64 // tie-break: events at equal instants run in schedule order
	fn     Handler
	afn    ArgHandler // alternative to fn: runs as afn(arg); see AtArg
	arg    uint64
	ticket *Ticket // non-nil only for ticketed (cancellable) events
	dead   bool    // cancelled; skipped on pop, removed by compaction
}

// less orders events by (at, seq). seq is unique per kernel, so the order
// is total and any heap over the same events pops the exact same sequence —
// the golden-seed pins depend on that.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// doneIdx marks a ticket whose event already ran or was cancelled.
const doneIdx = -1

// Ticket identifies a scheduled event so it can be cancelled. The zero value
// is not a valid ticket; tickets come from Kernel.At and Kernel.After.
type Ticket struct {
	k   *Kernel
	idx int // heap index of the entry; doneIdx once it ran or was cancelled
}

// Cancel removes the event from the schedule if it has not run yet. Cancel
// is idempotent and reports whether the event was actually cancelled (false
// if it already ran or was already cancelled). The captured handler is
// released immediately; the storage slot itself is reclaimed lazily (on pop
// or at the next compaction).
func (t *Ticket) Cancel() bool {
	if t == nil || t.k == nil || t.idx == doneIdx {
		return false
	}
	t.k.q.cancel(t)
	t.idx = doneIdx
	return true
}

// Pending reports whether the event is still scheduled.
func (t *Ticket) Pending() bool { return t != nil && t.k != nil && t.idx != doneIdx }

// compactMinLen is the queue length below which compaction is never
// worthwhile: popping the few dead entries lazily is cheaper than a sweep.
const compactMinLen = 64

// Kernel is a discrete-event scheduler. The zero value is not usable; create
// one with New. Kernel is not safe for concurrent use:
// simulations are single-threaded by design, and cross-run parallelism is
// achieved by running independent Kernels on separate goroutines.
type Kernel struct {
	now       simtime.Time
	q         eventHeap
	seq       uint64
	executed  uint64
	stopped   bool
	running   bool
	stopCause string
	observer  func() // post-event hook; see SetObserver
}

// New returns an empty kernel at virtual time zero.
func New() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() simtime.Time { return k.now }

// Executed returns the number of events that have run so far. It is a cheap
// progress measure and a guard against runaway protocols in tests.
func (k *Kernel) Executed() uint64 { return k.executed }

// ScheduleSeq returns the insertion sequence number the next scheduled
// event will be assigned. Together with an instant it lets hot paths detect
// "nothing has been scheduled since": the channel layer uses it to merge
// same-instant deliveries into one batched event without perturbing the
// (at, seq) execution order.
func (k *Kernel) ScheduleSeq() uint64 { return k.seq }

// Pending returns the number of scheduled (not yet executed, not cancelled)
// events in O(1). Cancelled events still occupying storage slots are not
// counted.
func (k *Kernel) Pending() int { return k.q.live }

// QueueLen returns the number of storage slots currently in use, including
// cancelled entries that have not been compacted away yet. It exists for
// capacity accounting and tests: QueueLen−Pending is the dead backlog,
// and compaction (triggered when dead entries outnumber live ones) keeps
// QueueLen at most 2·Pending+compactMinLen.
func (k *Kernel) QueueLen() int { return len(k.q.heap) }

// schedule validates and enqueues one event.
func (k *Kernel) schedule(at simtime.Time, fn Handler, afn ArgHandler, arg uint64, ticket *Ticket) {
	if fn == nil && afn == nil {
		panic("sim: scheduling a nil handler")
	}
	if !at.IsFinite() {
		panic(fmt.Sprintf("sim: scheduling at non-finite time %v", at))
	}
	if at.Before(k.now) {
		panic(fmt.Sprintf("sim: scheduling into the past: now %v, requested %v", k.now, at))
	}
	k.q.push(event{at: at, seq: k.seq, fn: fn, afn: afn, arg: arg, ticket: ticket})
	k.seq++
}

// At schedules fn to run at instant at and returns a cancellation ticket.
// Scheduling strictly in the past is a programming error and panics;
// scheduling at the current instant is allowed and runs after all
// previously scheduled events for that instant. Callers that never cancel
// should prefer AtFunc, which skips the ticket allocation.
func (k *Kernel) At(at simtime.Time, fn Handler) *Ticket {
	t := &Ticket{k: k}
	k.schedule(at, fn, nil, 0, t)
	return t
}

// AtFunc schedules fn to run at instant at, with the same validation as At
// but no cancellation handle — and therefore no per-event allocation. This
// is the hot path for the overwhelming share of events (message
// deliveries, tick loops, fault timelines), which are never cancelled.
func (k *Kernel) AtFunc(at simtime.Time, fn Handler) {
	k.schedule(at, fn, nil, 0, nil)
}

// AtArg schedules fn(arg) to run at instant at, ticketless. Unlike AtFunc,
// the handler is parameterised, so one long-lived func value (typically a
// method value) serves arbitrarily many events — no closure allocation per
// event even when each event needs distinct state. The callers are the
// channel layer's pooled delivery path (arg indexes its slot pool) and the
// network's local timers (arg packs node and timer kind). The argument is
// 64 bits wide because it fills padding the event struct has anyway.
func (k *Kernel) AtArg(at simtime.Time, fn ArgHandler, arg uint64) {
	k.schedule(at, nil, fn, arg, nil)
}

// Reserve makes room for n pending events, so a caller that knows its
// schedule will hold about n events at once (a network setting one timer
// per node) grows the event slice once instead of by repeated copying.
// It never shrinks the slice and changes no scheduling behaviour.
func (k *Kernel) Reserve(n int) {
	if n > len(k.q.heap) {
		k.q.heap = slices.Grow(k.q.heap, n-len(k.q.heap))
	}
}

// After schedules fn to run d time units from now and returns a
// cancellation ticket. It panics if d is negative or non-finite.
func (k *Kernel) After(d simtime.Duration, fn Handler) *Ticket {
	if !d.Valid() {
		panic(fmt.Sprintf("sim: After called with invalid duration %v", d))
	}
	return k.At(k.now.Add(d), fn)
}

// AfterFunc schedules fn to run d time units from now without a ticket —
// the allocation-free counterpart of After.
func (k *Kernel) AfterFunc(d simtime.Duration, fn Handler) {
	if !d.Valid() {
		panic(fmt.Sprintf("sim: AfterFunc called with invalid duration %v", d))
	}
	k.AtFunc(k.now.Add(d), fn)
}

// Stop halts the simulation after the currently executing event completes.
// The cause is reported by StopCause. Calling Stop outside Run simply marks
// the kernel so the next Run returns immediately.
func (k *Kernel) Stop(cause string) {
	k.stopped = true
	k.stopCause = cause
}

// SetObserver installs fn to run immediately after every executed event's
// handler returns, with the kernel's time and counters already advanced.
// Observers exist for measurement (time-series probes): they must only
// read state — scheduling, cancelling, or stopping from an observer would
// make an observed run diverge from an unobserved one, defeating the
// byte-identity guarantee the probes depend on. A nil fn removes the hook.
func (k *Kernel) SetObserver(fn func()) { k.observer = fn }

// StopCause returns the cause passed to the most recent Stop, or "".
func (k *Kernel) StopCause() string { return k.stopCause }

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// Run executes events in virtual-time order until one of:
//   - the schedule drains (returns nil),
//   - virtual time would exceed horizon (returns nil; the event at a time
//     past the horizon remains scheduled and time stops at the horizon),
//   - Stop is called (returns ErrStopped),
//   - more than maxEvents events execute, if maxEvents > 0 (returns an
//     error matching ErrMaxEvents; this guards against non-terminating
//     protocols in tests).
func (k *Kernel) Run(horizon simtime.Time, maxEvents uint64) error {
	if k.running {
		return errors.New("sim: Run called reentrantly")
	}
	k.running = true
	defer func() { k.running = false }()

	start := k.executed
	for {
		if k.stopped {
			return ErrStopped
		}
		at, ok := k.q.peekTime()
		if !ok {
			return nil // drained
		}
		if at.After(horizon) {
			// Leave the event scheduled and halt at the horizon. The clock
			// only ever moves forward: a horizon already in the past (a
			// resumed kernel driven with a smaller bound) must not rewind.
			if horizon.After(k.now) {
				k.now = horizon
			}
			return nil
		}
		if maxEvents > 0 && k.executed-start >= maxEvents {
			return fmt.Errorf("%w: exceeded %d events at %v", ErrMaxEvents, maxEvents, k.now)
		}
		k.execute()
	}
}

// Step executes exactly one pending event (the earliest) and returns true,
// or returns false if the schedule is empty or the kernel has been stopped
// — Step honours Stop exactly like Run does (a stopped kernel makes no
// progress until the stop is observed by the driver). Step ignores any
// horizon; use StepWithin to bound it. Useful for fine-grained tests and
// bounded model-checking drivers.
func (k *Kernel) Step() bool {
	return k.StepWithin(simtime.Forever)
}

// StepWithin is Step with a horizon guard, mirroring Run: if the earliest
// pending event lies strictly beyond horizon, no event runs, virtual time
// advances to the horizon, and StepWithin returns false with the event
// still scheduled.
func (k *Kernel) StepWithin(horizon simtime.Time) bool {
	if k.stopped {
		return false
	}
	at, ok := k.q.peekTime()
	if !ok {
		return false
	}
	if at.After(horizon) {
		if horizon.After(k.now) {
			k.now = horizon
		}
		return false
	}
	k.execute()
	return true
}

// execute pops the earliest live event (which must exist) and runs it.
func (k *Kernel) execute() {
	ev, ok := k.q.pop()
	if !ok {
		panic("sim: execute with an empty schedule")
	}
	if ev.ticket != nil {
		ev.ticket.idx = doneIdx
	}
	k.now = ev.at
	k.executed++
	if ev.afn != nil {
		ev.afn(ev.arg)
	} else {
		ev.fn()
	}
	if k.observer != nil {
		k.observer()
	}
}
