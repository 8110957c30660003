package sim

import (
	"testing"

	"abenet/internal/rng"
	"abenet/internal/simtime"
)

// The kernel's microbenchmark suite beside BenchmarkScheduleAndRun (a
// self-rescheduling tick chain, the shape of every tick loop and message
// delivery in the repository). Run with -benchmem: the allocation columns
// back the hard contract pinned by TestSchedulingAllocations.

// BenchmarkScheduleBurstDrain schedules 1000 events up front (the network
// wiring / fault-timeline shape) and drains them.
func BenchmarkScheduleBurstDrain(b *testing.B) {
	fn := func() {}
	for i := 0; i < b.N; i++ {
		k := New()
		r := rng.New(uint64(i))
		for j := 0; j < 1000; j++ {
			k.At(simtime.Time(r.Float64()*1000), fn)
		}
		if err := k.Run(simtime.Forever, 0); err != nil {
			b.Fatal(err)
		}
	}
}
