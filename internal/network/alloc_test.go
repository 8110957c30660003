package network

import (
	"testing"

	"abenet/internal/channel"
	"abenet/internal/dist"
	"abenet/internal/topology"
)

// quietRing builds an untraced, fault-free ring with instantaneous
// processing whose nodes ignore everything, so a test can drive one
// context's sends and timers by hand.
func quietRing(t *testing.T, n int) *Network {
	t.Helper()
	net, err := New(Config{
		Graph: topology.Ring(n),
		Links: channel.RandomDelayFactory(dist.NewExponential(1)),
		Seed:  1,
	}, func(int) Node { return &funcNode{} })
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestTicketlessTimerAllocatesNothing pins the fault-free, untraced
// SetLocalTimer path at zero allocations per timer, set and fired: one
// network-wide handler serves every (node, kind).
func TestTicketlessTimerAllocatesNothing(t *testing.T) {
	net := quietRing(t, 4)
	fired := 0
	net.nodes[2] = &funcNode{onTimer: func(*Context, int) { fired++ }}
	ctx := &net.ctxs[2]
	step := func() {
		ctx.SetLocalTimer(1, 3)
		if !net.kernel.Step() {
			t.Fatal("the timer did not fire")
		}
	}
	step() // grow the kernel's event slice
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Errorf("a timer allocates %g objects, want 0", avg)
	}
	if fired != 1002 {
		t.Fatalf("fired %d timers, want 1002", fired)
	}
	if got := net.Metrics().TimersFired; got != 1002 {
		t.Fatalf("TimersFired = %d, want 1002", got)
	}
}

// TestUntracedDeliveryAllocatesNothing pins a point-to-point send and its
// delivery on an untraced network with instantaneous processing at zero
// allocations per message, once the link's slot pool and the kernel's
// event slice have grown.
func TestUntracedDeliveryAllocatesNothing(t *testing.T) {
	net := quietRing(t, 4)
	var gotPort int
	var gotPayload any
	net.nodes[2] = &funcNode{onMessage: func(_ *Context, port int, payload any) {
		gotPort, gotPayload = port, payload
	}}
	ctx := &net.ctxs[1]
	var payload any = "token"
	step := func() {
		ctx.Send(0, payload)
		if !net.kernel.Step() {
			t.Fatal("the message was not delivered")
		}
	}
	step()
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Errorf("an untraced send and delivery allocate %g objects, want 0", avg)
	}
	if gotPort != 0 || gotPayload != payload {
		t.Fatalf("delivered %v on in-port %d, want %v on 0", gotPayload, gotPort, payload)
	}
	if m := net.Metrics(); m.MessagesSent != 1002 || m.MessagesDelivered != 1002 {
		t.Fatalf("metrics = %+v, want 1002 sent and delivered", m)
	}
}
