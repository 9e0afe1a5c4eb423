package noc

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestInjectQueueMatchesSliceModel drives two nodes' injection queues and a
// plain-slice FIFO per node through the same random bursts of Inject and
// dequeue (white-box), and after every operation compares the queue's length
// and head with the model and walks every list and activity bit
// (checkLists). A dequeue must return the model's head with its link cleared.
// Phases that favour bursts in, then bursts out, make the queues grow past
// five hundred messages and drain to empty before they refill, or the run
// proves nothing about either.
func TestInjectQueueMatchesSliceModel(t *testing.T) {
	net, cores := buildMesh(t, 2, 1, 1)
	nodes := cores[:2]
	models := make([][]*Message, len(nodes))
	rng := rand.New(rand.NewSource(11))
	var id uint64
	refills, deepest := 0, 0
	for step := 0; step < 1000; step++ {
		i := rng.Intn(len(nodes))
		nd := nodes[i]
		fill := step/250%2 == 0
		if k := rng.Intn(32); (rng.Intn(4) == 0) != fill {
			if len(models[i]) == 0 && k > 0 && id > 0 {
				refills++
			}
			for ; k > 0; k-- {
				id++
				m := &Message{ID: id, Dst: nodes[1-i].ID, SizeFlits: 1}
				nd.Inject(m)
				models[i] = append(models[i], m)
			}
		} else {
			for k = min(k, len(models[i])); k > 0; k-- {
				m := nd.qHead
				if nd.dequeue(); m != models[i][0] || m.next != nil {
					t.Fatalf("step %d: dequeue = %v (next %v), model head %v", step, m, m.next, models[i][0])
				}
				models[i] = models[i][1:]
			}
		}
		deepest = max(deepest, len(models[i]))
		when := fmt.Sprintf("step %d", step)
		for j, nd := range nodes {
			if nd.qLen != len(models[j]) {
				t.Fatalf("%s: %s has %d pending, model %d", when, nd, nd.qLen, len(models[j]))
			}
			if len(models[j]) > 0 && nd.qHead != models[j][0] {
				t.Fatalf("%s: %s head %v, model %v", when, nd, nd.qHead, models[j][0])
			}
		}
		checkLists(t, net, when)
	}
	if refills == 0 || deepest < 500 {
		t.Fatalf("vacuous: %d refills of an emptied queue, deepest queue %d", refills, deepest)
	}
}
