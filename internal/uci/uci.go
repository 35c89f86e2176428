// Package uci synthesises stand-ins for the ten UCI Machine Learning
// Repository datasets of Table 2 of Tsang et al. The module is offline, so
// each dataset is replaced by a class-conditional Gaussian mixture with the
// same shape as the original — tuple count, attribute count, class count,
// and integer vs. real domains — generated deterministically from a seed.
// The uncertainty of §4.3 is injected on top by the data package exactly as
// the paper does for the real datasets, so every code path (pdf
// construction, fractional splitting, interval pruning) is exercised
// identically; only absolute accuracy values differ. See README.md,
// "Reproducing the paper".
package uci

import (
	"fmt"
	"math"
	"math/rand"

	"udt/internal/data"
)

// Spec describes the shape of one Table 2 dataset.
type Spec struct {
	Name       string
	Train      int // training tuples (the paper's "No. of training tuples")
	Test       int // test tuples; 0 means the paper uses 10-fold CV
	Attrs      int // numeric attributes used for classification
	Classes    int
	Integer    bool // integral attribute domains (quantisation noise likely)
	RawSamples bool // attribute values are repeated raw measurements
}

// Specs lists the ten datasets of Table 2 with their original shapes.
var Specs = []Spec{
	{Name: "JapaneseVowel", Train: 270, Test: 370, Attrs: 12, Classes: 9, RawSamples: true},
	{Name: "PenDigits", Train: 7494, Test: 3498, Attrs: 16, Classes: 10, Integer: true},
	{Name: "Vehicle", Train: 846, Attrs: 18, Classes: 4, Integer: true},
	{Name: "Satellite", Train: 4435, Test: 2000, Attrs: 36, Classes: 6, Integer: true},
	{Name: "Segment", Train: 2310, Attrs: 19, Classes: 7},
	{Name: "Vowel", Train: 990, Attrs: 10, Classes: 11},
	{Name: "BreastCancer", Train: 569, Attrs: 30, Classes: 2},
	{Name: "Ionosphere", Train: 351, Attrs: 34, Classes: 2},
	{Name: "Glass", Train: 214, Attrs: 9, Classes: 6},
	{Name: "Iris", Train: 150, Attrs: 4, Classes: 3},
}

// ByName returns the spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("uci: unknown dataset %q", name)
}

// model holds the Gaussian-mixture geometry for one dataset.
type model struct {
	centroids [][]float64 // per class, per attribute
	noise     []float64   // per-attribute within-class standard deviation
	irrel     []bool      // attribute carries no class signal
}

// newModel draws the mixture geometry. Noise is scaled so that class
// overlap is moderate regardless of dimensionality, and roughly one in five
// attributes is irrelevant (pure noise), as is typical of the real
// datasets.
func newModel(spec Spec, rng *rand.Rand) *model {
	m := &model{
		centroids: make([][]float64, spec.Classes),
		noise:     make([]float64, spec.Attrs),
		irrel:     make([]bool, spec.Attrs),
	}
	for j := 0; j < spec.Attrs; j++ {
		m.noise[j] = 0.45 + 0.35*rng.Float64()
		m.irrel[j] = spec.Attrs > 4 && rng.Float64() < 0.2
	}
	for c := range m.centroids {
		cen := make([]float64, spec.Attrs)
		for j := range cen {
			if m.irrel[j] {
				cen[j] = 0
			} else {
				cen[j] = rng.NormFloat64()
			}
		}
		m.centroids[c] = cen
	}
	return m
}

// sample draws one attribute vector for class c in model units.
func (m *model) sample(c int, rng *rand.Rand) []float64 {
	row := make([]float64, len(m.noise))
	for j := range row {
		row[j] = m.centroids[c][j] + rng.NormFloat64()*m.noise[j]
	}
	return row
}

// toDomain converts a model-unit value to the dataset's presentation
// domain: an affine map to roughly [0, 100], rounded for integer datasets.
func toDomain(x float64, integer bool) float64 {
	v := 50 + 12*x
	if integer {
		return math.Round(v)
	}
	return v
}

// scaleCount scales a tuple count, keeping at least a handful per class.
func scaleCount(n int, scale float64, classes int) int {
	s := int(math.Round(float64(n) * scale))
	minN := 3 * classes
	if s < minN {
		s = minN
	}
	if s > n && scale <= 1 {
		s = n
	}
	return s
}

// Points generates the point-valued train and test matrices for a non-raw
// dataset spec. scale in (0, 1] shrinks tuple counts proportionally (for
// fast experiments and tests); 1 reproduces the Table 2 sizes. test is nil
// when the spec prescribes cross-validation. Generation is deterministic in
// (spec, scale, seed).
func Points(spec Spec, scale float64, seed int64) (train, test *data.Points, err error) {
	if spec.RawSamples {
		return nil, nil, fmt.Errorf("uci: %s provides raw samples; use Raw", spec.Name)
	}
	if scale <= 0 || scale > 1 {
		return nil, nil, fmt.Errorf("uci: scale %v out of (0, 1]", scale)
	}
	rng := rand.New(rand.NewSource(seed ^ int64(len(spec.Name))<<32 ^ hashName(spec.Name)))
	m := newModel(spec, rng)
	mk := func(n int, tag string) *data.Points {
		p := &data.Points{
			Name:    spec.Name + tag,
			Attrs:   attrNames(spec.Attrs),
			Classes: classNames(spec.Classes),
			Integer: integerFlags(spec),
		}
		for i := 0; i < n; i++ {
			c := i % spec.Classes // balanced classes
			row := m.sample(c, rng)
			for j := range row {
				row[j] = toDomain(row[j], spec.Integer)
			}
			p.Rows = append(p.Rows, row)
			p.Labels = append(p.Labels, c)
		}
		return p
	}
	train = mk(scaleCount(spec.Train, scale, spec.Classes), "")
	if spec.Test > 0 {
		test = mk(scaleCount(spec.Test, scale, spec.Classes), "-test")
	}
	return train, test, nil
}

// Raw generates an uncertain dataset whose attribute values are repeated
// raw measurements (7-29 observations per value, as in the JapaneseVowel
// LPC-coefficient data of §4.3), plus matching test data. The pdf of each
// value is modelled directly from its observations.
func Raw(spec Spec, scale float64, seed int64) (train, test *data.Dataset, err error) {
	if !spec.RawSamples {
		return nil, nil, fmt.Errorf("uci: %s is a point dataset; use Points", spec.Name)
	}
	if scale <= 0 || scale > 1 {
		return nil, nil, fmt.Errorf("uci: scale %v out of (0, 1]", scale)
	}
	rng := rand.New(rand.NewSource(seed ^ hashName(spec.Name)))
	m := newModel(spec, rng)
	mk := func(n int, tag string) (*data.Dataset, error) {
		rows := make([][][]float64, 0, n)
		labels := make([]int, 0, n)
		for i := 0; i < n; i++ {
			c := i % spec.Classes
			truth := m.sample(c, rng)
			row := make([][]float64, spec.Attrs)
			for j, v := range truth {
				nObs := 7 + rng.Intn(23) // 7-29 observations
				obs := make([]float64, nObs)
				for o := range obs {
					obs[o] = toDomain(v+rng.NormFloat64()*0.3, false)
				}
				row[j] = obs
			}
			rows = append(rows, row)
			labels = append(labels, c)
		}
		return data.FromRawSamples(spec.Name+tag, attrNames(spec.Attrs), classNames(spec.Classes), rows, labels)
	}
	if train, err = mk(scaleCount(spec.Train, scale, spec.Classes), ""); err != nil {
		return nil, nil, err
	}
	if spec.Test > 0 {
		if test, err = mk(scaleCount(spec.Test, scale, spec.Classes), "-test"); err != nil {
			return nil, nil, err
		}
	}
	return train, test, nil
}

func attrNames(k int) []string {
	names := make([]string, k)
	for j := range names {
		names[j] = fmt.Sprintf("A%d", j+1)
	}
	return names
}

func classNames(k int) []string {
	names := make([]string, k)
	for c := range names {
		names[c] = fmt.Sprintf("c%d", c)
	}
	return names
}

func integerFlags(spec Spec) []bool {
	flags := make([]bool, spec.Attrs)
	for j := range flags {
		flags[j] = spec.Integer
	}
	return flags
}

// hashName folds a dataset name into a seed component so different datasets
// decorrelate under the same user seed.
func hashName(name string) int64 {
	var h int64 = 1469598103934665603
	for _, r := range name {
		h ^= int64(r)
		h *= 1099511628211
	}
	return h
}
