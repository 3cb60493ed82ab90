package vecmath

import "htdp/internal/parallel"

// ColMomentsP returns per-column Welford moment accumulators over the
// rows of m: shard-local OnlineMoments streams merged in shard order
// with the pairwise Chan et al. update. The merge tree is fixed by the
// row count, so the moments are worker-count independent.
func ColMomentsP(m *Mat, workers int) []OnlineMoments {
	d := m.Cols
	if m.Rows == 0 {
		return make([]OnlineMoments, d)
	}
	type acc = []OnlineMoments
	return parallel.Reduce(workers, m.Rows,
		func(int) acc { return make(acc, d) },
		func(a acc, _, lo, hi int) acc {
			for i := lo; i < hi; i++ {
				r := m.Row(i)
				for j, v := range r {
					a[j].Add(v)
				}
			}
			return a
		},
		func(into, from acc) acc {
			for j := range into {
				into[j].Merge(from[j])
			}
			return into
		},
	)
}
