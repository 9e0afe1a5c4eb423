package nn

// SparseVec is a vector given by its listed entries: element Idx[k] holds
// Val[k], every unlisted element is zero. Idx is strictly ascending — layer 0
// sums its terms in list order, and ascending is Forward's order — and
// len(Val) == len(Idx). A listed value may itself be zero; the network's
// results are bit-equal with or without such an entry (see MLP).
//
// It is the form in which the Q-network's callers hold router states
// (core.StateSpec builds them, rl's replay memory and datasets store them):
// a state has a dozen entries per competing message and nothing for the
// buffers without one.
type SparseVec struct {
	Idx []int32
	Val []float64
}

// Index makes v the list of x's non-zero elements (x != 0: both zeros are
// out, NaN is in), reusing v's storage when it can hold len(x) entries.
func (v *SparseVec) Index(x []float64) {
	if cap(v.Idx) < len(x) || cap(v.Val) < len(x) {
		v.Idx, v.Val = make([]int32, len(x)), make([]float64, len(x))
	}
	idx, val := v.Idx[:len(x)], v.Val[:len(x)]
	n := 0
	for i, e := range x {
		if e != 0 {
			idx[n], val[n] = int32(i), e
			n++
		}
	}
	v.Idx, v.Val = idx[:n], val[:n]
}

// ScatterInto writes v out densely: dst is zeroed, then takes the listed
// entries. It panics if an index does not fit dst.
func (v SparseVec) ScatterInto(dst []float64) {
	clear(dst)
	val := v.Val[:len(v.Idx)]
	for k, i := range v.Idx {
		dst[i] = val[k]
	}
}
