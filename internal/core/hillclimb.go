package core

import "context"

// HillClimbStep records one round of the Section 6.5 feature-selection
// procedure: the feature added this round, the resulting converged latency,
// and the full feature set after the addition.
type HillClimbStep struct {
	Added   Feature
	Latency float64
	Set     FeatureSet
	// Tried maps every candidate feature evaluated this round to its
	// converged latency, so callers can reproduce Fig. 13's per-feature
	// comparison from round one.
	Tried map[Feature]float64
}

// HillClimbResult is the outcome of hill-climbing feature selection.
type HillClimbResult struct {
	Steps []HillClimbStep
	// Best is the final feature set (the set after the last improving round).
	Best FeatureSet
	// BestLatency is the converged latency of Best.
	BestLatency float64
}

// HillClimb reproduces the Section 6.5 alternative analysis: train the agent
// with one feature at a time, keep the best, then retry all pairs containing
// it, and so on, stopping when adding any remaining feature no longer
// improves converged latency (or maxFeatures is reached).
//
// The paper reports this procedure converging on {local age, hop count} —
// the same features the heatmap analysis identified. It panics if spec has no
// Env.
func HillClimb(spec TrainSpec, pool []Feature, maxFeatures int) *HillClimbResult {
	if len(pool) == 0 {
		pool = []Feature{FeatPayload, FeatLocalAge, FeatDistance, FeatHopCount}
	}
	if maxFeatures <= 0 || maxFeatures > len(pool) {
		maxFeatures = len(pool)
	}
	res := &HillClimbResult{BestLatency: -1}
	var current FeatureSet
	remaining := append([]Feature(nil), pool...)

	for len(current) < maxFeatures && len(remaining) > 0 {
		step := HillClimbStep{Tried: make(map[Feature]float64, len(remaining))}
		bestIdx, bestLat := -1, -1.0
		for i, f := range remaining {
			trial := append(append(FeatureSet(nil), current...), f)
			s := spec
			s.Features = trial
			tr, err := Train(context.TODO(), s) // TODO never cancels
			if err != nil {
				panic(err)
			}
			lat := tr.FinalLatency()
			step.Tried[f] = lat
			if bestIdx == -1 || lat < bestLat {
				bestIdx, bestLat = i, lat
			}
		}
		if res.BestLatency >= 0 && bestLat >= res.BestLatency {
			break // no remaining feature improves the converged latency
		}
		f := remaining[bestIdx]
		current = append(current, f)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		step.Added = f
		step.Latency = bestLat
		step.Set = append(FeatureSet(nil), current...)
		res.Steps = append(res.Steps, step)
		res.Best = step.Set
		res.BestLatency = bestLat
	}
	return res
}
