package noc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestBufferRingMatchesSliceModel drives one Buffer and a plain-slice FIFO
// through the same random operations — pushes that land in a free slot,
// pushes past capacity as requeueLink makes them, pops, reservations and
// releases, and RequeueStranded pulling a random subset out of the middle of
// the queue — and after every operation compares Len, Head, Free and every At
// with the model and recomputes the router's occ/stale/full bits
// (checkArbState). The run must compact across the ring's wrap point and
// overfill it past capacity, or it proves nothing about either.
func TestBufferRingMatchesSliceModel(t *testing.T) {
	const bufCap = 3
	net, nodes := BuildMeshCores(Config{Width: 2, Height: 2, VCs: 2, BufferCap: bufCap})
	r := nodes[0].Router
	b := &r.in[PortCore][1]
	var model []*Message
	reserved := 0
	rng := rand.New(rand.NewSource(3))
	var id uint64
	wrappedCompactions, overfills := 0, 0
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			if !b.Free() && (len(model) >= bufCap+3 || rng.Intn(3) != 0) {
				break
			}
			if !b.Free() {
				overfills++ // requeueLink pushes whatever is on a dead link
			}
			id++
			m := &Message{ID: id, Dst: nodes[3].ID, SizeFlits: 1}
			b.push(net.cycle, m)
			model = append(model, m)
		case op < 7:
			if len(model) == 0 {
				break
			}
			if m := b.pop(); m != model[0] {
				t.Fatalf("step %d: pop = %v, model head %v", step, m, model[0])
			}
			model = model[1:]
		case op == 7:
			if b.Free() {
				b.reserve()
				reserved++
			}
		case op == 8:
			if reserved > 0 {
				b.unreserve()
				reserved--
			}
		default:
			if int(b.head)+b.Len() > len(b.ring) {
				wrappedCompactions++
			}
			mask := rng.Uint64()
			stranded := func(m *Message) bool { return mask>>(m.ID%64)&1 == 1 }
			net.RequeueStranded(func(sr *Router, p PortID, m *Message) bool {
				return sr == r && p == PortCore && stranded(m)
			})
			model = slices.DeleteFunc(model, stranded)
		}
		when := fmt.Sprintf("step %d", step)
		if b.Len() != len(model) || b.Free() != (len(model)+reserved < bufCap) {
			t.Fatalf("%s: Len %d Free %v, model %d queued + %d reserved", when, b.Len(), b.Free(), len(model), reserved)
		}
		if len(model) == 0 && b.Head() != nil || len(model) > 0 && b.Head() != model[0] {
			t.Fatalf("%s: Head = %v", when, b.Head())
		}
		for i, m := range model {
			if b.At(i) != m {
				t.Fatalf("%s: At(%d) = %v, model %v", when, i, b.At(i), m)
			}
		}
		// A popped or stranded message is not kept alive by a stale slot.
		held := 0
		for _, m := range b.ring {
			if m != nil {
				held++
			}
		}
		if held != len(model) {
			t.Fatalf("%s: ring holds %d messages, %d queued", when, held, len(model))
		}
		checkArbState(t, net, when)
	}
	if wrappedCompactions == 0 || overfills == 0 {
		t.Fatalf("vacuous: %d compactions across the wrap point, %d pushes past capacity", wrappedCompactions, overfills)
	}
}

// TestHotStructSizes pins the layout a hop reads: the carried destination
// fits in Message's padding, the ring's int32 counters keep Buffer at one
// 64-byte cache line, and a delivery names its buffer in three words.
func TestHotStructSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Message", unsafe.Sizeof(Message{}), 112},
		{"Buffer", unsafe.Sizeof(Buffer{}), 64},
		{"delivery", unsafe.Sizeof(delivery{}), 24},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
}
