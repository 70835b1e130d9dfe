package main

import (
	"math"
	"strconv"
	"strings"

	"liquidarch/internal/metrics"
)

// Helpers over the snapshots of the registries the program exports
// (the node registry behind /metrics, and each client's registry).

// family reports whether a snapshot key belongs to the metric family
// name: the bare name or any labelled child of it.
func family(key, name string) bool {
	return key == name || strings.HasPrefix(key, name+"{")
}

// counterSum sums a counter family (all label values) in s.
func counterSum(s metrics.Snapshot, name string) float64 {
	var v float64
	for k, c := range s.Counters {
		if family(k, name) {
			v += float64(c)
		}
	}
	return v
}

// counterDelta is a counter family's growth from a to b.
func counterDelta(a, b metrics.Snapshot, name string) float64 {
	return counterSum(b, name) - counterSum(a, name)
}

func gaugeDelta(a, b metrics.Snapshot, name string) float64 {
	return b.Gauges[name] - a.Gauges[name]
}

// histDelta merges a histogram family's buckets (all label values,
// which share bounds) and subtracts a from b. It returns the upper
// edges and per-bucket counts.
func histDelta(a, b metrics.Snapshot, name string) (edges []float64, counts []float64) {
	add := func(s metrics.Snapshot, sign float64) {
		for k, hv := range s.Histograms {
			if !family(k, name) {
				continue
			}
			if edges == nil {
				for _, bk := range hv.Buckets {
					e := math.Inf(1)
					if bk.LE != "+Inf" {
						e, _ = strconv.ParseFloat(bk.LE, 64)
					}
					edges = append(edges, e)
				}
				counts = make([]float64, len(edges))
			}
			var prev uint64
			for i, bk := range hv.Buckets {
				if i < len(counts) {
					counts[i] += sign * float64(bk.Count-prev)
				}
				prev = bk.Count
			}
		}
	}
	add(b, 1)
	add(a, -1)
	return edges, counts
}

// histQuantile estimates the q-quantile of a bucketed histogram by
// linear interpolation inside the bucket holding it, as Prometheus'
// histogram_quantile does. It returns the estimate and the number of
// observations.
func histQuantile(edges, counts []float64, q float64) (float64, int) {
	var total float64
	for _, c := range counts {
		total += c
	}
	if total <= 0 {
		return 0, 0
	}
	rank := q * total
	var cum, lo float64
	for i, c := range counts {
		hi := edges[i]
		if cum+c >= rank && c > 0 {
			if math.IsInf(hi, 1) {
				return lo, int(total)
			}
			return lo + (hi-lo)*(rank-cum)/c, int(total)
		}
		cum += c
		if !math.IsInf(hi, 1) {
			lo = hi
		}
	}
	return lo, int(total)
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
