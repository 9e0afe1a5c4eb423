package noc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"mlnoc/internal/arb"
	"mlnoc/internal/fault"
	"mlnoc/internal/noc"
)

// tableRouting and westFirstRouting adapt internal/fault's routings to
// noc.RunArbStateSchedule: the table routing rebuilds (and renormalizes
// RouteBits through RequeueStranded) after every link transition, as
// fault.Injector makes it do; west-first reads live link state.
func tableRouting(net *noc.Network) (noc.Routing, func()) {
	rt := fault.NewTableRouting(net)
	return rt, rt.Rebuild
}

func westFirstRouting(net *noc.Network) (noc.Routing, func()) {
	rt, err := fault.NewWestFirstRouting(net)
	if err != nil {
		panic(err)
	}
	return rt, nil
}

// TestArbStateNeverStaleFaultRoutings is TestArbStateNeverStale over the two
// production fault routings, which package noc's own tests cannot import.
func TestArbStateNeverStaleFaultRoutings(t *testing.T) {
	type routing = func(*noc.Network) (noc.Routing, func())
	for _, torus := range []bool{false, true} {
		routings := map[string]routing{"table": tableRouting}
		if !torus {
			routings["west-first"] = westFirstRouting // rejects a torus
		}
		for rname, mkRouting := range routings {
			for _, bufCap := range []int{1, 4} {
				for pname, pol := range map[string]noc.Policy{"policy": arb.NewGlobalAge(), "matcher": arb.NewISLIP(2)} {
					t.Run(fmt.Sprintf("torus=%v/%s/cap%d/%s", torus, rname, bufCap, pname), func(t *testing.T) {
						cfg := noc.Config{Width: 4, Height: 4, VCs: 3, BufferCap: bufCap, Torus: torus}
						if noc.RunArbStateSchedule(t, cfg, pol, mkRouting, 11, 400) == 0 {
							t.Fatal("nothing delivered; run is vacuous")
						}
					})
				}
			}
		}
	}
}

// FuzzArbStateMatchesBruteforce builds an arbitrary small network — size,
// topology, VCs, buffer depth, routing and policy from the fuzz input — and
// runs a fault schedule drawn from seed over random traffic, asserting after
// every cycle that the incrementally maintained arbitration state and
// activity bitmaps equal a brute-force recomputation and that
// Injected == Delivered + Unreachable + InFlight. The seeds below run as a
// plain test.
func FuzzArbStateMatchesBruteforce(f *testing.F) {
	f.Add(uint8(4), uint8(4), false, uint8(3), uint8(4), uint8(0), uint8(0), int64(1))
	f.Add(uint8(3), uint8(5), true, uint8(1), uint8(1), uint8(2), uint8(2), int64(2))
	f.Add(uint8(5), uint8(2), false, uint8(10), uint8(2), uint8(3), uint8(1), int64(3))
	f.Add(uint8(2), uint8(2), false, uint8(11), uint8(3), uint8(1), uint8(3), int64(4))
	f.Add(uint8(6), uint8(3), true, uint8(2), uint8(1), uint8(2), uint8(4), int64(5))
	f.Add(uint8(1), uint8(4), false, uint8(4), uint8(2), uint8(3), uint8(5), int64(6))
	f.Add(uint8(3), uint8(3), true, uint8(9), uint8(1), uint8(2), uint8(2), int64(7)) // MaxVCs: the 60-bit mask
	f.Fuzz(func(t *testing.T, w, h uint8, torus bool, vcs, bufCap, routing, policy uint8, seed int64) {
		cfg := noc.Config{
			Width: 1 + int(w%6), Height: 1 + int(h%6),
			VCs: 1 + int(vcs%noc.MaxVCs), BufferCap: 1 + int(bufCap%4),
		}
		if cfg.Width*cfg.Height < 2 {
			cfg.Width = 2 // traffic needs two nodes
		}
		cfg.Torus = torus && cfg.Width >= 3 && cfg.Height >= 3
		rng := rand.New(rand.NewSource(seed))
		policies := []noc.Policy{
			arb.NewGlobalAge(), arb.NewRoundRobin(), arb.NewISLIP(2),
			arb.NewWavefront(), arb.NewRandom(rng), arb.NewFIFO(),
		}
		routings := []func(*noc.Network) (noc.Routing, func()){
			func(*noc.Network) (noc.Routing, func()) { return nil, nil },
			func(*noc.Network) (noc.Routing, func()) { return noc.XYRouting{}, nil },
			tableRouting,
			westFirstRouting,
		}
		mkRouting := routings[int(routing)%len(routings)]
		if cfg.Torus && int(routing)%len(routings) == 3 {
			mkRouting = tableRouting // west-first rejects a torus
		}
		noc.RunArbStateSchedule(t, cfg, policies[int(policy)%len(policies)], mkRouting, seed, 150)
	})
}
