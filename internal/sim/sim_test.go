package sim

import (
	"errors"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"abenet/internal/rng"
	"abenet/internal/simtime"
)

func TestRunsInTimeOrder(t *testing.T) {
	k := New()
	var order []simtime.Time
	times := []simtime.Time{5, 1, 3, 2, 4}
	for _, at := range times {
		at := at
		k.At(at, func() { order = append(order, at) })
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events ran out of order: %v", order)
	}
	if len(order) != len(times) {
		t.Fatalf("ran %d events, want %d", len(order), len(times))
	}
	if k.Now() != 5 {
		t.Fatalf("final time %v, want 5", k.Now())
	}
}

func TestTieBreakIsScheduleOrder(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(1, func() { order = append(order, i) })
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated: %v", order)
		}
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	k := New()
	var hits []simtime.Time
	k.At(1, func() {
		hits = append(hits, k.Now())
		k.After(2, func() { hits = append(hits, k.Now()) })
	})
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Fatalf("hits = %v, want [1 3]", hits)
	}
}

func TestSameInstantSchedulingRunsAfterCurrent(t *testing.T) {
	k := New()
	var order []string
	k.At(1, func() {
		order = append(order, "a")
		k.After(0, func() { order = append(order, "c") })
	})
	k.At(1, func() { order = append(order, "b") })
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestHorizonStopsTime(t *testing.T) {
	k := New()
	ran := false
	k.At(10, func() { ran = true })
	if err := k.Run(5, 0); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("event past horizon ran")
	}
	if k.Now() != 5 {
		t.Fatalf("time = %v, want horizon 5", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	// A later Run can pick the event up.
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("event did not run after extending horizon")
	}
}

func TestStopInsideEvent(t *testing.T) {
	k := New()
	ran2 := false
	k.At(1, func() { k.Stop("test cause") })
	k.At(2, func() { ran2 = true })
	err := k.Run(simtime.Forever, 0)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if ran2 {
		t.Fatal("event after Stop ran")
	}
	if k.StopCause() != "test cause" {
		t.Fatalf("cause = %q", k.StopCause())
	}
	if !k.Stopped() {
		t.Fatal("Stopped() = false")
	}
}

func TestMaxEventsGuard(t *testing.T) {
	k := New()
	var tick func()
	tick = func() { k.After(1, tick) } // immortal self-rescheduling event
	k.At(0, tick)
	err := k.Run(simtime.Forever, 100)
	if err == nil || errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want livelock guard error", err)
	}
	if k.Executed() != 100 {
		t.Fatalf("executed = %d, want 100", k.Executed())
	}
}

func TestCancel(t *testing.T) {
	k := New()
	ran := false
	ticket := k.At(1, func() { ran = true })
	if !ticket.Pending() {
		t.Fatal("ticket should be pending")
	}
	if !ticket.Cancel() {
		t.Fatal("first Cancel should succeed")
	}
	if ticket.Cancel() {
		t.Fatal("second Cancel should be a no-op")
	}
	if ticket.Pending() {
		t.Fatal("cancelled ticket still pending")
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestCancelAfterRunIsNoop(t *testing.T) {
	k := New()
	ticket := k.At(1, func() {})
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if ticket.Cancel() {
		t.Fatal("Cancel after execution should return false")
	}
}

func TestNilTicketCancelSafe(t *testing.T) {
	var ticket *Ticket
	if ticket.Cancel() {
		t.Fatal("nil ticket Cancel should be false")
	}
	if ticket.Pending() {
		t.Fatal("nil ticket should not be pending")
	}
}

func TestPendingCountSkipsCancelled(t *testing.T) {
	k := New()
	t1 := k.At(1, func() {})
	k.At(2, func() {})
	t1.Cancel()
	if got := k.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
}

func TestPanicsOnPastScheduling(t *testing.T) {
	k := New()
	k.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		k.At(1, func() {})
	})
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPanicsOnNilHandler(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	New().At(1, nil)
}

func TestPanicsOnInvalidDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	New().After(-1, func() {})
}

func TestStep(t *testing.T) {
	k := New()
	count := 0
	k.At(1, func() { count++ })
	k.At(2, func() { count++ })
	if !k.Step() {
		t.Fatal("Step should run the first event")
	}
	if count != 1 || k.Now() != 1 {
		t.Fatalf("after one step: count=%d now=%v", count, k.Now())
	}
	if !k.Step() {
		t.Fatal("Step should run the second event")
	}
	if k.Step() {
		t.Fatal("Step on empty schedule should return false")
	}
	if count != 2 {
		t.Fatalf("count = %d", count)
	}
}

func TestReentrantRunRejected(t *testing.T) {
	k := New()
	var innerErr error
	k.At(1, func() {
		innerErr = k.Run(simtime.Forever, 0)
	})
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if innerErr == nil {
		t.Fatal("reentrant Run should error")
	}
}

func TestManyRandomEventsStayOrdered(t *testing.T) {
	// Property: for arbitrary seeds, execution order is non-decreasing in
	// time even with events scheduled from within events.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		k := New()
		var last simtime.Time
		ok := true
		var spawn func(depth int)
		spawn = func(depth int) {
			if k.Now() < last {
				ok = false
			}
			last = k.Now()
			if depth <= 0 {
				return
			}
			n := r.Intn(3)
			for i := 0; i < n; i++ {
				d := simtime.Duration(r.Float64() * 10)
				k.After(d, func() { spawn(depth - 1) })
			}
		}
		for i := 0; i < 10; i++ {
			at := simtime.Time(r.Float64() * 10)
			k.At(at, func() { spawn(3) })
		}
		if err := k.Run(simtime.Forever, 100000); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed uint64) []simtime.Time {
		r := rng.New(seed)
		k := New()
		var log []simtime.Time
		var tick func()
		remaining := 200
		tick = func() {
			log = append(log, k.Now())
			remaining--
			if remaining > 0 {
				k.After(simtime.Duration(r.ExpFloat64()), tick)
			}
		}
		k.At(0, tick)
		if err := k.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(77), run(77)
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := New()
		r := rng.New(uint64(i))
		var tick func()
		remaining := 1000
		tick = func() {
			remaining--
			if remaining > 0 {
				k.After(simtime.Duration(r.ExpFloat64()), tick)
			}
		}
		k.At(0, tick)
		if err := k.Run(simtime.Forever, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStepRespectsStop(t *testing.T) {
	// Regression: Step used to execute events even after Stop, unlike Run.
	k := New()
	ran := false
	k.At(1, func() { ran = true })
	k.Stop("halt")
	if k.Step() {
		t.Fatal("Step made progress on a stopped kernel")
	}
	if ran {
		t.Fatal("Step executed an event on a stopped kernel")
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want the event still scheduled", k.Pending())
	}
}

func TestStepWithinHorizon(t *testing.T) {
	k := New()
	count := 0
	k.At(1, func() { count++ })
	k.At(10, func() { count++ })
	if !k.StepWithin(5) {
		t.Fatal("StepWithin should run the event at t=1")
	}
	if k.StepWithin(5) {
		t.Fatal("StepWithin ran an event past the horizon")
	}
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if k.Now() != 5 {
		t.Fatalf("time = %v, want the horizon 5 (mirroring Run)", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want the t=10 event still scheduled", k.Pending())
	}
	// A later step with a wider horizon picks the event up.
	if !k.StepWithin(simtime.Forever) {
		t.Fatal("StepWithin(Forever) should run the remaining event")
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestTicketlessSchedulingRunsIdentically(t *testing.T) {
	// AtFunc/AfterFunc must consume the same sequence numbers and produce
	// the same execution order as their ticketed counterparts.
	trace := func(ticketless bool) []int {
		k := New()
		var order []int
		add := func(at simtime.Time, i int) {
			if ticketless {
				k.AtFunc(at, func() { order = append(order, i) })
			} else {
				k.At(at, func() { order = append(order, i) })
			}
		}
		for i, at := range []simtime.Time{5, 1, 5, 3, 1} {
			add(at, i)
		}
		if err := k.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := trace(true), trace(false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ticketless order %v diverges from ticketed %v", a, b)
		}
	}
}

// TestCancelHeavyHeapStaysBounded is the regression for cancelled events
// being invisible to capacity accounting: schedule and cancel 100k timers
// and require (a) O(1) Pending via the live counter, and (b) a heap that
// sheds dead entries instead of retaining all 100k until pop.
func TestCancelHeavyHeapStaysBounded(t *testing.T) {
	k := New()
	const total = 100_000
	live := 0
	tickets := make([]*Ticket, 0, total)
	for i := 0; i < total; i++ {
		at := simtime.Time(1 + i%997)
		tickets = append(tickets, k.At(at, func() {}))
		// Cancel all but every 1000th timer, the ARQ-retransmit pattern:
		// nearly every timer is cancelled long before it would fire.
		if i%1000 != 0 {
			tickets[len(tickets)-1].Cancel()
		} else {
			live++
		}
	}
	if got := k.Pending(); got != live {
		t.Fatalf("Pending = %d, want %d", got, live)
	}
	// Compaction keeps dead entries a minority: the heap may hold at most
	// 2·live+compactMinLen slots, not the ~100k cancelled ones.
	if max := 2*live + compactMinLen; k.QueueLen() > max {
		t.Fatalf("heap holds %d slots for %d live events (bound %d): cancellations are not compacted", k.QueueLen(), live, max)
	}
	pending := 0
	for _, tk := range tickets {
		if tk.Pending() {
			pending++
		}
	}
	if pending != live {
		t.Fatalf("%d tickets still pending, want %d", pending, live)
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if int(k.Executed()) != live {
		t.Fatalf("executed %d events, want the %d live ones", k.Executed(), live)
	}
	if k.QueueLen() != 0 || k.Pending() != 0 {
		t.Fatalf("queue not drained: len=%d pending=%d", k.QueueLen(), k.Pending())
	}
}

// TestCompactionPreservesOrder cancels a pseudo-random half of a large
// schedule (forcing compactions) and checks the survivors still run in
// exact (time, insertion) order.
func TestCompactionPreservesOrder(t *testing.T) {
	k := New()
	r := rng.New(99)
	type key struct {
		at  simtime.Time
		seq int
	}
	var want []key
	var got []key
	for i := 0; i < 5000; i++ {
		i := i
		at := simtime.Time(r.Float64() * 100)
		tk := k.At(at, func() { got = append(got, key{at, i}) })
		if r.Bool(0.5) {
			tk.Cancel()
		} else {
			want = append(want, key{at, i})
		}
	}
	sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order diverged at %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestSchedulingAllocations pins the allocation contract of the two API
// tiers: the ticketless fast path allocates nothing once the heap slice is
// warm; the ticketed path allocates exactly its one *Ticket.
func TestSchedulingAllocations(t *testing.T) {
	k := New()
	fn := func() {}
	// Warm the heap slice so append never grows inside the measurement.
	for i := 0; i < 128; i++ {
		k.AtFunc(0, fn)
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}

	if avg := testing.AllocsPerRun(1000, func() {
		k.AtFunc(k.Now(), fn)
		if err := k.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("AtFunc+Run allocates %g objects per event, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		k.AfterFunc(1, fn)
		if err := k.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("AfterFunc+Run allocates %g objects per event, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		k.At(k.Now(), fn)
		if err := k.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
	}); avg != 1 {
		t.Errorf("At+Run allocates %g objects per event, want exactly the 1 ticket", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		k.At(k.Now().Add(1), fn).Cancel()
	}); avg != 1 {
		t.Errorf("At+Cancel allocates %g objects per event, want exactly the 1 ticket", avg)
	}
}

func TestStepWithinPastHorizonDoesNotRewind(t *testing.T) {
	// Regression (review finding): a horizon earlier than the current
	// virtual time must not move the clock backwards.
	k := New()
	k.At(10, func() {})
	k.At(12, func() {})
	if !k.StepWithin(simtime.Forever) {
		t.Fatal("first step should run the t=10 event")
	}
	if k.StepWithin(5) {
		t.Fatal("no event lies within the past horizon")
	}
	if k.Now() != 10 {
		t.Fatalf("clock rewound to %v, want it held at 10", k.Now())
	}
	// Run must hold the same invariant.
	if err := k.Run(5, 0); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 10 {
		t.Fatalf("Run rewound the clock to %v, want 10", k.Now())
	}
}

// TestCompactionTriggersDuringRun is the regression for compaction being
// reachable only from Cancel: cancel a dead minority (no sweep fires),
// then execute live events until the dead entries dominate — the kernel
// must shed them mid-run instead of carrying them to their instants.
func TestCompactionTriggersDuringRun(t *testing.T) {
	k := New()
	fn := func() {}
	tickets := make([]*Ticket, 0, 10000)
	for i := 1; i <= 10000; i++ {
		tickets = append(tickets, k.At(simtime.Time(i), fn))
	}
	for i := 5001; i <= 9000; i++ {
		tickets[i-1].Cancel() // dead = 4000 < len/2: no sweep yet
	}
	if err := k.Run(5000, 0); err != nil {
		t.Fatal(err)
	}
	if got := k.Pending(); got != 1000 {
		t.Fatalf("Pending = %d, want 1000", got)
	}
	if max := 2*k.Pending() + compactMinLen; k.QueueLen() > max {
		t.Fatalf("heap holds %d slots for %d live events (bound %d): execution never re-checks the compaction threshold",
			k.QueueLen(), k.Pending(), max)
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if k.Executed() != 6000 {
		t.Fatalf("executed %d events, want 6000", k.Executed())
	}
}

// TestErrMaxEventsTyped pins the livelock guard's error identity: the
// wrapped error matches ErrMaxEvents via errors.Is, carries the budget in
// its text, and is distinct from ErrStopped.
func TestErrMaxEventsTyped(t *testing.T) {
	k := New()
	var tick func()
	tick = func() { k.AtFunc(k.Now(), tick) } // classic livelock: no time progress
	k.AtFunc(0, tick)
	err := k.Run(simtime.Forever, 100)
	if !errors.Is(err, ErrMaxEvents) {
		t.Fatalf("Run = %v, want errors.Is(_, ErrMaxEvents)", err)
	}
	if errors.Is(err, ErrStopped) {
		t.Fatal("livelock error also matches ErrStopped")
	}
	if !strings.Contains(err.Error(), "100") {
		t.Fatalf("error %q does not name the budget", err)
	}
	if k.Executed() != 100 {
		t.Fatalf("executed %d events before tripping, want exactly the budget", k.Executed())
	}
}

// TestSimtimeExtremes schedules wildly mixed magnitudes — tiny gaps,
// astronomically distant instants and the largest finite times float64 can
// hold — in scrambled order and checks exact ordering survives.
func TestSimtimeExtremes(t *testing.T) {
	times := []simtime.Time{
		0, 1e-12, 1e-9, 0.5, 1, 2, 63, 64, 65, 1000,
		1e6, 1e6 + 1e-6, 1e9, 1e15, 1e18, 1e30, 1e100,
		1e300, math.MaxFloat64 / 8, math.MaxFloat64 / 4,
	}
	k := New()
	var got []simtime.Time
	// Schedule in a fixed scrambled order so insertion is non-monotone.
	perm := []int{7, 0, 19, 3, 11, 15, 1, 18, 5, 9, 13, 2, 17, 4, 10, 6, 16, 8, 12, 14}
	for _, i := range perm {
		at := times[i]
		k.AtFunc(at, func() { got = append(got, at) })
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(times) {
		t.Fatalf("ran %d events, want %d", len(got), len(times))
	}
	for i := range times {
		if got[i] != times[i] {
			t.Fatalf("order diverged at %d: got %v, want %v", i, got[i], times[i])
		}
	}
	if k.Now() != math.MaxFloat64/4 {
		t.Fatalf("final time = %v, want MaxFloat64/4", k.Now())
	}
	// A fresh near-term schedule relative to the new now still works.
	fired := false
	k.AtFunc(k.Now(), func() { fired = true })
	if err := k.Run(simtime.Forever, 0); err != nil || !fired {
		t.Fatalf("post-extreme scheduling broken: err=%v fired=%v", err, fired)
	}
}

// TestSameInstantBurstFIFO: a large burst of events at one instant
// (synchronized tick timers) must run in schedule order, and a second
// burst scheduled from inside the first must run after it.
func TestSameInstantBurstFIFO(t *testing.T) {
	k := New()
	const n = 20_000
	var got []int
	at := simtime.Time(7)
	for i := 0; i < n; i++ {
		i := i
		k.AtFunc(at, func() {
			got = append(got, i)
			if i < 100 {
				k.AtFunc(at, func() { got = append(got, n+i) }) // reentrant same-instant
			}
		})
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if len(got) != n+100 {
		t.Fatalf("ran %d events, want %d", len(got), n+100)
	}
	for i := 0; i < n; i++ {
		if got[i] != i {
			t.Fatalf("position %d ran event %d, want FIFO order", i, got[i])
		}
	}
	for i := 0; i < 100; i++ {
		if got[n+i] != n+i {
			t.Fatalf("reentrant event order broken at %d: got %d", i, got[n+i])
		}
	}
}

// TestPendingQueueLenInvariants walks a mixed workload and checks
// the counting surface after every operation: Pending counts live events
// exactly, QueueLen ≥ Pending, and the compaction bound holds throughout.
func TestPendingQueueLenInvariants(t *testing.T) {
	k := New()
	r := rng.New(7)
	live := make(map[*Ticket]bool)
	liveFns := 0
	check := func(ctx string) {
		t.Helper()
		want := len(live) + liveFns
		if got := k.Pending(); got != want {
			t.Fatalf("%s: Pending = %d, want %d", ctx, got, want)
		}
		if k.QueueLen() < k.Pending() {
			t.Fatalf("%s: QueueLen %d < Pending %d", ctx, k.QueueLen(), k.Pending())
		}
		if max := 2*k.Pending() + compactMinLen; k.QueueLen() > max {
			t.Fatalf("%s: QueueLen %d exceeds compaction bound %d", ctx, k.QueueLen(), max)
		}
	}
	for i := 0; i < 3000; i++ {
		switch {
		case r.Bool(0.45):
			at := k.Now().Add(simtime.Duration(r.Float64() * 300))
			if r.Bool(0.6) {
				tk := k.At(at, func() {})
				live[tk] = true
			} else {
				liveFns++
				k.AtFunc(at, func() { liveFns-- })
			}
		case r.Bool(0.5) && len(live) > 0:
			for tk := range live {
				tk.Cancel()
				delete(live, tk)
				break
			}
		default:
			before := k.Pending()
			if k.Step() && before > 0 {
				for tk := range live {
					if !tk.Pending() {
						delete(live, tk)
					}
				}
			}
		}
		check("op")
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	live = map[*Ticket]bool{}
	check("drained")
	if k.QueueLen() != 0 {
		t.Fatalf("drained QueueLen = %d, want 0", k.QueueLen())
	}
}

// TestEventStaysCompact pins the event struct at 56 bytes: the 64-bit
// AtArg argument fills padding the struct had anyway, so widening it
// costs the heap nothing.
func TestEventStaysCompact(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 56 {
		t.Fatalf("event is %d bytes, want 56", size)
	}
}

// TestAtArgPassesFullWidthArgument runs AtArg events whose arguments use
// the high bits, in (instant, schedule) order.
func TestAtArgPassesFullWidthArgument(t *testing.T) {
	k := New()
	var got []uint64
	fn := func(arg uint64) { got = append(got, arg) }
	args := []uint64{1 << 63, math.MaxUint64, 0, 42<<32 | 7}
	k.AtArg(2, fn, args[3])
	k.AtArg(1, fn, args[0])
	k.AtArg(1, fn, args[1])
	k.AtArg(1, fn, args[2])
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	for i, want := range args {
		if got[i] != want {
			t.Fatalf("arguments %#x, want %#x", got, args)
		}
	}
}

// TestReserveKeepsSchedule checks that Reserve only makes room: pending
// events still run in order, and reserving less than is queued is a no-op.
func TestReserveKeepsSchedule(t *testing.T) {
	k := New()
	var order []int
	for i := 3; i > 0; i-- {
		k.AtFunc(simtime.Time(i), func() { order = append(order, i) })
	}
	k.Reserve(1)
	k.Reserve(100)
	if k.QueueLen() != 3 || cap(k.q.heap) < 100 {
		t.Fatalf("QueueLen %d, capacity %d after Reserve(100)", k.QueueLen(), cap(k.q.heap))
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("ran %v, want [1 2 3]", order)
	}
}
