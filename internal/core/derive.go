package core

import (
	"fmt"
	"math"

	"mlnoc/internal/noc"
	"mlnoc/internal/synth"
)

// This file implements a first cut at the gap the paper's conclusion calls
// out as future work: going from the trained network to an implementable
// algorithm automatically. "The current state of the art in ML does not
// provide an automatic method or process to go from a trained NN to an
// implementable algorithm" (Section 3.2) — the heuristics here mechanize the
// two specific readings the paper's architects performed by hand:
//
//  1. Fig. 4: compare the local-age and hop-count row magnitudes and turn
//     their ratio into the shift amounts of the mesh priority function.
//  2. Fig. 7 / Section 4.6: read the per-port signs of the hop-count row
//     (against the output-layer sign) and pick the port pair whose hop
//     priority should descend.
//
// They are deliberately simple — the point is to reproduce the paper's two
// derivations from their stated evidence, not to claim general NN
// distillation.

// Derivation reports how a policy was derived from a heatmap.
type Derivation struct {
	// LAWeight and HCWeight are the mean |w| of the local-age and hop-count
	// heatmap rows.
	LAWeight, HCWeight float64
	// Notes explains the decision in the paper's vocabulary.
	Notes string
}

// featureRow locates a feature's row in the heatmap by label; one-hot
// features match their first element.
func featureRow(h *Heatmap, label string) (int, error) {
	for i, l := range h.RowLabels {
		if l == label {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: heatmap has no %q row", label)
}

// DeriveMeshPolicy converts a trained mesh agent's heatmap into the paper's
// Section 3.2 priority function: the relative magnitude of the local-age and
// hop-count rows sets the shift amounts, exactly the reading that produced
// (la<<1)+(hc<<1) on the 4x4 mesh and la+(hc<<2) on the 8x8 mesh.
func DeriveMeshPolicy(h *Heatmap) (*RulePolicy, *Derivation, error) {
	laRow, err := featureRow(h, FeatLocalAge.String())
	if err != nil {
		return nil, nil, err
	}
	hcRow, err := featureRow(h, FeatHopCount.String())
	if err != nil {
		return nil, nil, err
	}
	d := &Derivation{LAWeight: h.RowMean(laRow), HCWeight: h.RowMean(hcRow)}
	if d.LAWeight <= 0 || d.HCWeight <= 0 {
		return nil, nil, fmt.Errorf("core: degenerate heatmap (zero feature rows)")
	}
	// Shift split from the magnitude ratio: comparable weights share the
	// shift budget; a 2x dominant feature takes all of it.
	r := synth.Rule{LABits: 5, HopBits: 4}
	ratio := math.Log2(d.HCWeight / d.LAWeight)
	switch {
	case ratio >= 1: // hop count clearly dominant (the paper's 8x8 case)
		r.LAShift, r.HCShift = 0, 2
		d.Notes = "hop count dominant: global age is better approximated through hop count"
	case ratio <= -1: // local age clearly dominant
		r.LAShift, r.HCShift = 2, 0
		d.Notes = "local age dominant: waiting time drives priority"
	default: // comparable (the paper's 4x4 case)
		r.LAShift, r.HCShift = 1, 1
		d.Notes = "local age and hop count carry similar weight"
	}
	return &RulePolicy{fmt.Sprintf("rl-derived(la<<%d,hc<<%d)", r.LAShift, r.HCShift), r}, d, nil
}

// DeriveAPUPortRule reads the per-port hop-count signs of a trained APU
// agent's heatmap — the Section 4.6 analysis — and returns the Algorithm 2
// variant of Rules with the hop inversion on the port pair whose signed
// weights are more negative (after orienting by the output-layer sign).
func DeriveAPUPortRule(h *Heatmap) (*RulePolicy, *Derivation, error) {
	hcRow, err := featureRow(h, FeatHopCount.String())
	if err != nil {
		return nil, nil, err
	}
	d := &Derivation{HCWeight: h.RowMean(hcRow)}
	we := h.PortSignedMean(hcRow, noc.PortWest.String()) +
		h.PortSignedMean(hcRow, noc.PortEast.String())
	ns := h.PortSignedMean(hcRow, noc.PortNorth.String()) +
		h.PortSignedMean(hcRow, noc.PortSouth.String())
	// With a negative output layer the hidden-weight signs read inverted
	// (Section 4.6 checks this before interpreting).
	if h.OutputWeightMean < 0 {
		we, ns = -we, -ns
	}
	if ns < we {
		d.Notes = "hop-count weights more negative on N/S: prioritize smaller hop counts there"
		return NamedRule("rl-inspired"), d, nil
	}
	d.Notes = "hop-count weights more negative on W/E: prioritize smaller hop counts there (the paper's rule)"
	return NamedRule("rl-inspired-paper-we"), d, nil
}
