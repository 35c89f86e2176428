package main

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
)

// The benchmark owns its input generator, so two commits handed the same
// seed receive byte-identical files: nothing here calls into the module's
// own generators (internal/uci, data.Inject, internal/loadgen), which a
// change under test could alter.

const (
	numAttrs   = 19
	numClasses = 7
)

// The Segment schema: 19 numeric image-region attributes, 7 classes.
var (
	segmentAttrs = [numAttrs]string{
		"region-centroid-col", "region-centroid-row", "region-pixel-count",
		"short-line-density-5", "short-line-density-2", "vedge-mean", "vedge-sd",
		"hedge-mean", "hedge-sd", "intensity-mean", "rawred-mean", "rawblue-mean",
		"rawgreen-mean", "exred-mean", "exblue-mean", "exgreen-mean", "value-mean",
		"saturation-mean", "hue-mean",
	}
	segmentClasses = [numClasses]string{
		"brickface", "sky", "foliage", "cement", "window", "path", "grass",
	}
)

// shapeSeed fixes the class structure every --seed shares.
const shapeSeed = 0x5e6

// The generative model. Each class is a union of clusters; on
// every attribute a cluster's centre sits at one of three levels of the
// attribute's nominal domain, picked from shapeSeed. Within a cluster the
// values of one attribute are the fixed normal quantiles
// Φ⁻¹((q+½)/m)·sd around the centre, dealt to the cluster's tuples in an
// order drawn from the run seed. So the seed changes every tuple and every
// byte, but each cluster's per-attribute marginal, and therefore what a
// split search over whole clusters has to do, is the same at every seed:
// the exact work counters repeat across seeds and run-to-run spread
// measures the program, not the draw. Levels are 0.35 of the domain apart
// and sd is 0.05 of it, so clusters on different levels never overlap even
// with their 10% pdfs, while the clusters sharing a level, of different
// classes, overlap fully and give split search heterogeneous intervals to
// evaluate.
const sdFrac = 0.05

var levels = [3]float64{0.15, 0.5, 0.85}

type shape struct {
	lo, span [numAttrs]float64
	centre   [][numAttrs]float64 // per cluster; cluster k belongs to class k/sub
	sub      int                 // clusters per class
}

// segmentShape returns the model with sub clusters per class. More
// clusters make larger trees: the train workload uses 2, the scored and
// served forest 12.
func segmentShape(sub int) *shape {
	rng := rand.New(rand.NewSource(shapeSeed))
	sh := &shape{centre: make([][numAttrs]float64, numClasses*sub), sub: sub}
	for j := 0; j < numAttrs; j++ {
		sh.lo[j] = math.Round((rng.Float64()*200-100)*100) / 100
		sh.span[j] = math.Round(math.Pow(10, rng.Float64()*3)*100) / 100
	}
	for k := range sh.centre {
		for j := 0; j < numAttrs; j++ {
			sh.centre[k][j] = sh.lo[j] + levels[rng.Intn(len(levels))]*sh.span[j]
		}
	}
	return sh
}

// points draws n labelled point tuples. Labels cycle through the classes
// and each class's tuples cycle through its clusters, so class and cluster
// sizes are the same at every seed. Values are rounded to 4 decimals.
func (sh *shape) points(n int, rng *rand.Rand) (rows [][]float64, labels []int) {
	rows = make([][]float64, n)
	labels = make([]int, n)
	members := make([][]int, len(sh.centre))
	for i := range rows {
		rows[i], labels[i] = make([]float64, numAttrs), i%numClasses
		k := labels[i]*sh.sub + (i/numClasses)%sh.sub
		members[k] = append(members[k], i)
	}
	for k, idx := range members {
		m := len(idx)
		for j := 0; j < numAttrs; j++ {
			sd := sdFrac * sh.span[j]
			for q, p := range rng.Perm(m) {
				z := math.Sqrt2 * math.Erfinv(2*(float64(q)+0.5)/float64(m)-1)
				v := sh.centre[k][j] + sd*z
				v = math.Min(math.Max(v, sh.lo[j]), sh.lo[j]+sh.span[j])
				rows[idx[p]][j] = math.Round(v*1e4) / 1e4
			}
		}
	}
	return rows, labels
}

// gaussianPDF is the §4.3 random-noise error model around v: s evenly
// spaced sample points over [v - width/2, v + width/2] with masses from a
// Gaussian of sigma = width/4, normalised to 1.
func gaussianPDF(v, width float64, s int) (xs, ms []float64) {
	xs = make([]float64, s)
	ms = make([]float64, s)
	sigma := width / 4
	total := 0.0
	for k := 0; k < s; k++ {
		x := v - width/2 + width*float64(k)/float64(s-1)
		xs[k] = x
		d := (x - v) / sigma
		ms[k] = math.Exp(-d * d / 2)
		total += ms[k]
	}
	for k := range ms {
		ms[k] /= total
	}
	return xs, ms
}

// uncertainSet is a generated dataset: point tuples plus the width
// (fraction of each attribute's nominal domain) and sample count of the
// Gaussian pdf placed on every value.
type uncertainSet struct {
	sh     *shape
	rows   [][]float64
	labels []int
	w      float64
	s      int
}

func (sh *shape) uncertain(n int, w float64, s int, rng *rand.Rand) *uncertainSet {
	rows, labels := sh.points(n, rng)
	return &uncertainSet{sh: sh, rows: rows, labels: labels, w: w, s: s}
}

func (u *uncertainSet) pdf(i, j int) (xs, ms []float64) {
	return gaussianPDF(u.rows[i][j], u.w*u.sh.span[j], u.s)
}

// appendFloat writes v with 8 significant digits. A fixed precision keeps
// every file and body the same length at every seed (full round-trip
// precision would vary with each value's binary expansion), so parse and
// decode work does not move with the seed.
func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', 8, 64) }

// csv renders the set in the module's CSV interchange format: a header
// naming the attributes and "class", then one row per tuple whose cells are
// "x@mass;x@mass;..." pdfs.
func (u *uncertainSet) csv() []byte {
	var b []byte
	for j := 0; j < numAttrs; j++ {
		b = append(b, segmentAttrs[j]...)
		b = append(b, ',')
	}
	b = append(b, "class\n"...)
	for i := range u.rows {
		for j := 0; j < numAttrs; j++ {
			xs, ms := u.pdf(i, j)
			for k := range xs {
				if k > 0 {
					b = append(b, ';')
				}
				b = appendFloat(b, xs[k])
				b = append(b, '@')
				b = appendFloat(b, ms[k])
			}
			b = append(b, ',')
		}
		b = append(b, segmentClasses[u.labels[i]]...)
		b = append(b, '\n')
	}
	return b
}

// body renders tuple i as a single-tuple POST /classify body whose values
// are {"xs": [...], "masses": [...]} pdfs.
func (u *uncertainSet) body(i int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"num":[`)
	var tmp []byte
	for j := 0; j < numAttrs; j++ {
		if j > 0 {
			b.WriteByte(',')
		}
		xs, ms := u.pdf(i, j)
		for part, vs := range [2][]float64{xs, ms} {
			if part == 0 {
				b.WriteString(`{"xs":[`)
			} else {
				b.WriteString(`],"masses":[`)
			}
			for k, v := range vs {
				if k > 0 {
					b.WriteByte(',')
				}
				tmp = appendFloat(tmp[:0], v)
				b.Write(tmp)
			}
		}
		b.WriteString(`]}`)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}
