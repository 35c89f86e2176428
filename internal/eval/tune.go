package eval

import (
	"errors"
	"math"
	"math/rand"

	"udt/internal/core"
	"udt/internal/data"
)

// Width tuning per §4.4 of the paper: the accuracy-vs-w curve has a wide
// plateau, so a good uncertainty width is estimated as the midpoint of the
// w range whose 95% confidence interval overlaps that of the best
// observed accuracy.

// WidthPoint is the measured accuracy at one candidate width.
type WidthPoint struct {
	W      float64
	Mean   float64 // mean CV accuracy over the repeats
	StdErr float64 // standard error of the mean
	Runs   int
}

// TuneWidth evaluates each candidate width by repeated stratified
// cross-validation on the point data p (injecting uncertainty with the
// given sample count and error model) and returns the §4.4 estimate: the
// midpoint of the plateau of widths statistically indistinguishable from
// the best. repeats >= 2 is required for confidence intervals.
func TuneWidth(p *data.Points, ws []float64, s int, model data.ErrorModel, cfg core.Config, folds, repeats int, rng *rand.Rand) (bestW float64, points []WidthPoint, err error) {
	if len(ws) == 0 {
		return 0, nil, errors.New("eval: no candidate widths")
	}
	if repeats < 2 {
		return 0, nil, errors.New("eval: width tuning needs repeats >= 2 for confidence intervals")
	}
	if rng == nil {
		return 0, nil, errors.New("eval: nil rng")
	}
	points = make([]WidthPoint, 0, len(ws))
	for _, w := range ws {
		ds, err := data.Inject(p, data.InjectConfig{W: w, S: s, Model: model})
		if err != nil {
			return 0, nil, err
		}
		accs := make([]float64, repeats)
		for r := range accs {
			res, err := CrossValidate(ds, folds, Tree(cfg), rand.New(rand.NewSource(rng.Int63())))
			if err != nil {
				return 0, nil, err
			}
			accs[r] = res.Accuracy
		}
		mean, se := meanStdErr(accs)
		points = append(points, WidthPoint{W: w, Mean: mean, StdErr: se, Runs: repeats})
	}
	// The best point and its 95% CI.
	best := points[0]
	for _, pt := range points[1:] {
		if pt.Mean > best.Mean {
			best = pt
		}
	}
	const z = 1.96
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, pt := range points {
		// Overlapping confidence intervals with the best point.
		if pt.Mean+z*pt.StdErr >= best.Mean-z*best.StdErr {
			if pt.W < lo {
				lo = pt.W
			}
			if pt.W > hi {
				hi = pt.W
			}
		}
	}
	return (lo + hi) / 2, points, nil
}

// meanStdErr returns the sample mean and the standard error of the mean.
func meanStdErr(xs []float64) (mean, se float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss/(n-1)) / math.Sqrt(n)
}
