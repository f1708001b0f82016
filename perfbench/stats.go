package main

import (
	"fmt"
	"math"
	"slices"
)

// percentileIdx returns the index of the p-th percentile in a sorted
// sample of length n by the nearest-rank rule: the 1-based rank is
// ceil(p·n/100), clamped into [1, n]. This is the definition the
// serving plane's load generator uses, so P99 of 100 samples is the
// 99th smallest, not the 98th.
func percentileIdx(n int, p float64) int {
	if n < 1 {
		return 0
	}
	i := int(math.Ceil(p*float64(n)/100)) - 1
	return min(max(i, 0), n-1)
}

// percentile returns the nearest-rank p-th percentile of xs, sorting a
// copy; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[percentileIdx(len(s), p)]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// validName reports whether s may name a metric: 1 to 64 letters,
// digits, '_', '.' and '-', starting with a letter or a digit.
func validName(s string) error {
	if s == "" || len(s) > 64 {
		return fmt.Errorf("metric name %q: want 1 to 64 characters", s)
	}
	for i, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		switch {
		case alnum:
		case i == 0:
			return fmt.Errorf("metric name %q: must start with a letter or a digit", s)
		case c == '_' || c == '.' || c == '-':
		default:
			return fmt.Errorf("metric name %q: character %q not allowed", s, c)
		}
	}
	return nil
}
