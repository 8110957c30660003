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
	if k.QueueLen() != 1 {
		t.Fatalf("pending = %d, want 1", k.QueueLen())
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
	if k.QueueLen() != 1 {
		t.Fatalf("pending = %d, want the event still scheduled", k.QueueLen())
	}
}

// TestSchedulingAllocations pins the allocation contract: At, After and
// the run that executes them allocate nothing once the heap slice is warm.
func TestSchedulingAllocations(t *testing.T) {
	k := New()
	fn := func() {}
	// Warm the heap slice so append never grows inside the measurement.
	for i := 0; i < 128; i++ {
		k.At(0, fn)
	}
	if err := k.Run(simtime.Forever, 0); err != nil {
		t.Fatal(err)
	}

	if avg := testing.AllocsPerRun(1000, func() {
		k.At(k.Now(), fn)
		if err := k.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("At+Run allocates %g objects per event, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		k.After(1, fn)
		if err := k.Run(simtime.Forever, 0); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("After+Run allocates %g objects per event, want 0", avg)
	}
}

func TestStepWithinPastHorizonDoesNotRewind(t *testing.T) {
	// Regression (review finding): a horizon earlier than the current
	// virtual time must not move the clock backwards. Run is the kernel's
	// only horizon-bounded driver.
	k := New()
	k.At(10, func() {})
	k.At(12, func() {})
	if !k.Step() {
		t.Fatal("first step should run the t=10 event")
	}
	if err := k.Run(5, 0); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 10 {
		t.Fatalf("Run rewound the clock to %v, want 10", k.Now())
	}
	if k.QueueLen() != 1 {
		t.Fatalf("QueueLen = %d, want the t=12 event still scheduled", k.QueueLen())
	}
}

// TestErrMaxEventsTyped pins the livelock guard's error identity: the
// wrapped error matches ErrMaxEvents via errors.Is, carries the budget in
// its text, and is distinct from ErrStopped.
func TestErrMaxEventsTyped(t *testing.T) {
	k := New()
	var tick func()
	tick = func() { k.At(k.Now(), tick) } // classic livelock: no time progress
	k.At(0, tick)
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
		k.At(at, func() { got = append(got, at) })
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
	k.At(k.Now(), func() { fired = true })
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
		k.At(at, func() {
			got = append(got, i)
			if i < 100 {
				k.At(at, func() { got = append(got, n+i) }) // reentrant same-instant
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

// TestEventStaysCompact pins the event struct at 40 bytes: instant,
// sequence number, the two handler words and the AtArg argument, with no
// per-event bookkeeping beside them.
func TestEventStaysCompact(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 40 {
		t.Fatalf("event is %d bytes, want 40", size)
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
		k.At(simtime.Time(i), func() { order = append(order, i) })
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
