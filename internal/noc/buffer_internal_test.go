package noc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestBufferListMatchesSliceModel drives one Buffer and a plain-slice FIFO
// through the same random operations — pushes that land in a free slot,
// pushes past capacity as requeueLink makes them, pops, reservations and
// releases, and RequeueStranded pulling a random subset out of the middle of
// the queue — and after every operation compares Len, Head, free and every At
// with the model and recomputes the router's occ/stale/full bits and the
// lists (checkArbState). The run must unlink a tail while keeping an earlier
// message and overfill past capacity, or it proves nothing about either.
func TestBufferListMatchesSliceModel(t *testing.T) {
	const bufCap = 3
	net, nodes := BuildMeshCores(Config{Width: 2, Height: 2, VCs: 2, BufferCap: bufCap})
	r := nodes[0].Router
	b := &r.in[PortCore][1]
	var model []*Message
	reserved := 0
	rng := rand.New(rand.NewSource(3))
	var id uint64
	tailCuts, overfills := 0, 0
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			if !b.free(bufCap) && (len(model) >= bufCap+3 || rng.Intn(3) != 0) {
				break
			}
			if !b.free(bufCap) {
				overfills++ // requeueLink pushes whatever is on a dead link
			}
			id++
			m := &Message{ID: id, Dst: nodes[3].ID, SizeFlits: 1}
			r.push(PortCore, 1, net.cycle, m)
			model = append(model, m)
		case op < 7:
			if len(model) == 0 {
				break
			}
			if m := r.pop(PortCore, 1); m != model[0] || m.next != nil {
				t.Fatalf("step %d: pop = %v (next %v), model head %v", step, m, m.next, model[0])
			}
			model = model[1:]
		case op == 7:
			if b.free(bufCap) {
				r.reserve(PortCore, 1)
				reserved++
			}
		case op == 8:
			if reserved > 0 {
				r.unreserve(PortCore, 1)
				reserved--
			}
		default:
			mask := rng.Uint64()
			stranded := func(m *Message) bool { return mask>>(m.ID%64)&1 == 1 }
			net.RequeueStranded(func(sr *Router, p PortID, m *Message) bool {
				return sr == r && p == PortCore && stranded(m)
			})
			if n := len(model); n >= 2 && stranded(model[n-1]) && !stranded(model[0]) {
				tailCuts++
			}
			model = slices.DeleteFunc(model, stranded)
		}
		when := fmt.Sprintf("step %d", step)
		if b.Len() != len(model) || b.free(bufCap) != (len(model)+reserved < bufCap) {
			t.Fatalf("%s: Len %d free %v, model %d queued + %d reserved", when, b.Len(), b.free(bufCap), len(model), reserved)
		}
		if len(model) == 0 && b.Head() != nil || len(model) > 0 && b.Head() != model[0] {
			t.Fatalf("%s: Head = %v", when, b.Head())
		}
		for i, m := range model {
			if b.At(i) != m {
				t.Fatalf("%s: At(%d) = %v, model %v", when, i, b.At(i), m)
			}
		}
		checkArbState(t, net, when)
	}
	if tailCuts == 0 || overfills == 0 {
		t.Fatalf("vacuous: %d tails unlinked behind a kept head, %d pushes past capacity", tailCuts, overfills)
	}
}

// TestHotStructSizes pins the layout a hop reads: Message is twelve words,
// the 96-byte size class, with the carried destination, the cached route,
// the one-word payload and the list link; a Buffer is two list ends, two
// int32 counters and its last arrival (two buffers a cache line); and a
// delivery names its destination in three words.
func TestHotStructSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Message", unsafe.Sizeof(Message{}), 96},
		{"Buffer", unsafe.Sizeof(Buffer{}), 32},
		{"delivery", unsafe.Sizeof(delivery{}), 24},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
}
