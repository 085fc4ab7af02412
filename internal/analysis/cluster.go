package analysis

import (
	"fmt"
	"math"
	"sort"
)

// This file derives phase definitions from data by clustering the
// observed Mem/Uop distribution — the "how many phases does this
// workload really have?" question underneath the paper's fixed
// six-bin Table 1.

// KMeans1D clusters values into k groups by one-dimensional k-means.
// Initialization is deterministic (quantile seeding), so results are
// reproducible. It returns the sorted cluster centers and the total
// within-cluster sum of squared distances.
func KMeans1D(values []float64, k int) (centers []float64, wcss float64, err error) {
	if len(values) == 0 {
		return nil, 0, ErrEmptyStream
	}
	if k < 1 || k > len(values) {
		return nil, 0, fmt.Errorf("analysis: k %d outside [1, %d]", k, len(values))
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)

	centers = make([]float64, k)
	for i := range centers {
		centers[i] = sorted[(2*i+1)*len(sorted)/(2*k)]
	}

	assign := make([]int, len(sorted))
	for iter := 0; iter < 100; iter++ {
		// Assign each (sorted) value to the nearest center; centers
		// are kept sorted so assignment boundaries are monotone.
		changed := false
		for i, v := range sorted {
			best, bestD := 0, math.Abs(v-centers[0])
			for c := 1; c < k; c++ {
				if d := math.Abs(v - centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centers.
		sum := make([]float64, k)
		cnt := make([]int, k)
		for i, v := range sorted {
			sum[assign[i]] += v
			cnt[assign[i]]++
		}
		for c := 0; c < k; c++ {
			if cnt[c] > 0 {
				centers[c] = sum[c] / float64(cnt[c])
			}
		}
		sort.Float64s(centers)
		if !changed {
			break
		}
	}
	for i, v := range sorted {
		d := v - centers[assign[i]]
		wcss += float64(d * d) // rounded before the add: never fused
	}
	return centers, wcss, nil
}

// SuggestPhaseCount picks a phase count by the elbow criterion: the
// smallest k (in [2, maxK]) whose within-cluster variance reduction
// over k−1 falls below the improvement threshold (a fraction of the
// previous WCSS, e.g. 0.5 = "stop when doubling the clusters stops
// halving the spread").
func SuggestPhaseCount(values []float64, maxK int, improvement float64) (int, error) {
	if maxK < 2 {
		return 0, fmt.Errorf("analysis: maxK %d must be at least 2", maxK)
	}
	if improvement <= 0 || improvement >= 1 {
		return 0, fmt.Errorf("analysis: improvement threshold %v outside (0,1)", improvement)
	}
	_, prev, err := KMeans1D(values, 1)
	if err != nil {
		return 0, err
	}
	// A (numerically) constant distribution has one phase; the 1e-12
	// floor absorbs float rounding in the mean (values are Mem/Uop
	// scale, so real spread produces WCSS orders of magnitude larger).
	if prev < 1e-12 {
		return 1, nil
	}
	for k := 2; k <= maxK; k++ {
		_, w, err := KMeans1D(values, k)
		if err != nil {
			return 0, err
		}
		if (prev-w)/prev < improvement {
			return k - 1, nil
		}
		prev = w
	}
	return maxK, nil
}
