package main

import "slices"

// metric is one named number of a report. Timings measured over several
// reps carry their spread; counts and derived ratios leave it zero.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	IQR   float64 `json:"iqr,omitempty"`
	N     int     `json:"n,omitempty"`
}

// metricSet is the metrics of one workload run, keyed by name.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, value float64) {
	m[name] = metric{Value: value, Unit: unit}
}

// setSamples records the median of samples with min, max, IQR and n beside
// it. With fewer than 11 samples no percentile is claimed.
func (m metricSet) setSamples(name, unit string, samples []float64) {
	q1, med, q3 := quartiles(samples)
	m[name] = metric{Value: med, Unit: unit, Min: slices.Min(samples), Max: slices.Max(samples), IQR: q3 - q1, N: len(samples)}
}

func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the exclusive method), so spreads computed here and by whoever
// gates the benchmark agree. A single sample is its own three quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
