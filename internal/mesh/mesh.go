// Package mesh holds the link-selection analysis of §4.2's topology
// maintenance: the ETX penalty and overhead a node pays when erroneous
// delivery-probability estimates make it choose the worse of two links.
package mesh

import "errors"

// ErrSamePick is returned by Penalty when the estimate error cannot flip
// the choice of link.
var ErrSamePick = errors.New("mesh: estimate error cannot change the selection")

// Penalty quantifies the §4.2 analysis: two candidate links with true
// delivery probabilities p1 > p2 and a symmetric estimate error delta.
// The node picks the wrong link when p2+delta ≥ p1−delta; the penalty is
// the extra expected transmissions 1/p2 − 1/p1 and the overhead is the
// penalty relative to the optimum, p1/p2 − 1. If the error cannot flip
// the choice, ErrSamePick is returned.
func Penalty(p1, p2, delta float64) (penalty, overhead float64, err error) {
	if p1 < p2 {
		p1, p2 = p2, p1
	}
	if p1 <= 0 || p2 <= 0 {
		return 0, 0, errors.New("mesh: probabilities must be positive")
	}
	if p2+delta < p1-delta {
		return 0, 0, ErrSamePick
	}
	penalty = 1/p2 - 1/p1
	overhead = p1/p2 - 1
	return penalty, overhead, nil
}
