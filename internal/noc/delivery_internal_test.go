package noc

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestDeliveryStoreFixedAtNew pins that a network's delivery storage is sized
// by New: on a fresh network whose message freelist is already warm and whose
// per-node tables its first Step sized (input buffers and injection queues
// are lists through the messages and never allocate), driving the in-flight deliveries up to
// their first peak allocates nothing. It counts the runtime's mallocs over the
// whole climb, on one P as testing.AllocsPerRun does, because AllocsPerRun's
// integer division hides fewer than one allocation per cycle.
func TestDeliveryStoreFixedAtNew(t *testing.T) {
	const cycles = 300
	net, nodes := BuildMeshCores(Config{Width: 8, Height: 8, VCs: 3, BufferCap: 4})
	net.SetPolicy(orderPolicy{})
	for i := 0; i < 64*cycles; i++ {
		net.recycleMessage(&Message{pooled: true})
	}
	net.Step() // the first Step sizes the per-node tables
	rng := rand.New(rand.NewSource(3))
	var id uint64
	peak := 0
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for c := 0; c < cycles; c++ {
		injectRandom(net, nodes, rng, 0.3, &id)
		net.Step()
		peak = max(peak, net.pending)
	}
	runtime.ReadMemStats(&after)
	if peak < 4*wheelLen {
		t.Fatalf("vacuous: in-flight deliveries peaked at %d", peak)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d cycles up to a peak of %d in-flight deliveries made %d mallocs, want 0", cycles, peak, n)
	}
}

// wheelLists returns the messages of every wheel slot's list, in list order.
func wheelLists(net *Network) [wheelLen][]*Message {
	var lists [wheelLen][]*Message
	for s := range net.wheelHead {
		for i := net.wheelHead[s]; i >= 0; i = net.delNext[i] {
			lists[s] = append(lists[s], net.dels[i].msg)
		}
	}
	return lists
}

// checkWheelLost fails unless the wheel's lists are before's with the
// messages in gone removed, in the same order.
func checkWheelLost(t *testing.T, net *Network, before [wheelLen][]*Message, gone map[*Message]bool, when string) {
	t.Helper()
	got := wheelLists(net)
	for s := range before {
		want := slices.DeleteFunc(slices.Clone(before[s]), func(m *Message) bool { return gone[m] })
		if !slices.Equal(got[s], want) {
			t.Fatalf("%s: wheel slot %d holds %v, want %v", when, s, got[s], want)
		}
	}
}

// TestUnlinkKeepsGrantOrder holds the two fault paths that pull deliveries off
// the wheel — requeueLink (a link kill) and RequeueStranded — to the
// store's invariants: the deliveries they leave stay on their wheel slots in
// grant order, the output slots they empty are free, and conservation holds.
// RequeueStranded takes every other hop of each wheel slot from the head on,
// so it unlinks heads, middles and tails.
func TestUnlinkKeepsGrantOrder(t *testing.T) {
	net, nodes := BuildMeshCores(Config{Width: 4, Height: 4, VCs: 2, BufferCap: 4})
	net.SetPolicy(orderPolicy{})
	rng := rand.New(rand.NewSource(9))
	var id uint64
	for c := 0; c < 80; c++ {
		injectRandom(net, nodes, rng, 0.5, &id)
		net.Step()
	}
	check := func(when string) {
		t.Helper()
		checkDeliveries(t, net, when)
		checkArbState(t, net, when)
		checkConservation(t, net, when)
	}
	check("loaded")

	// Kill the link under the first hop on the wheel.
	before := wheelLists(net)
	hop := int32(-1)
	for i := range net.dels {
		if net.dels[i].to != nil {
			hop = int32(i)
			break
		}
	}
	if hop < 0 {
		t.Fatal("vacuous: no hop in flight")
	}
	r, out := net.routers[int(hop)/MaxPorts], PortID(int(hop)%MaxPorts)
	victim := net.dels[hop].msg
	if got := net.SetLinkDown(r.id, out, true); got != 1 {
		t.Fatalf("killing output %s of %s requeued %d messages, want 1", out, r, got)
	}
	if net.dels[hop].msg != nil {
		t.Fatalf("the killed link's slot still holds %s", net.dels[hop].msg)
	}
	checkWheelLost(t, net, before, map[*Message]bool{victim: true}, "after the kill")
	check("after the kill")

	// Strand every other hop of each wheel slot.
	before = wheelLists(net)
	stranded := map[*Message]bool{}
	var slotsOf []int32
	long := 0
	for s := range net.wheelHead {
		k := 0
		for i := net.wheelHead[s]; i >= 0; i = net.delNext[i] {
			if net.dels[i].to != nil {
				if k%2 == 0 {
					stranded[net.dels[i].msg] = true
					slotsOf = append(slotsOf, i)
				}
				k++
			}
		}
		if k >= 3 {
			long++
		}
	}
	if long == 0 {
		t.Fatal("vacuous: no wheel slot holds three hops")
	}
	if got := net.RequeueStranded(func(_ *Router, _ PortID, m *Message) bool { return stranded[m] }); got != len(stranded) {
		t.Fatalf("RequeueStranded requeued %d messages, want %d", got, len(stranded))
	}
	for _, i := range slotsOf {
		if net.dels[i].msg != nil {
			t.Fatalf("a stranded delivery's slot still holds %s", net.dels[i].msg)
		}
	}
	checkWheelLost(t, net, before, stranded, "after RequeueStranded")
	check("after RequeueStranded")

	net.SetLinkDown(r.id, out, false)
	if !net.Drain(20000) {
		t.Fatal("network did not drain")
	}
	check("drained")
}
