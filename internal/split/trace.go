package split

import (
	"fmt"
	"io"
	"math"
	"strings"

	"udt/internal/data"
)

// TraceES replays the End-point Sampling process of §5.3 on a single
// attribute and records every step, reproducing the nine rows of the
// paper's Fig 5: pdf domains, end points, fine intervals, the sampled end
// points, coarse intervals, the coarse intervals surviving the bound,
// re-expanded end points, their fine intervals, and the final candidate
// intervals whose interiors must be evaluated. It is an explanatory
// facility — the production search (Finder.Best with StrategyES) performs
// the same steps without materialising them.

// TraceStep is one row of the Fig 5 illustration.
type TraceStep struct {
	Row       int
	Name      string
	Points    []float64    // for point rows
	Intervals [][2]float64 // for interval rows
}

// TraceES traces attribute attr of the given tuples. cfg supplies the
// measure and the end-point sample fraction. The returned steps always
// number nine, mirroring Fig 5.
func TraceES(tuples []*data.Tuple, attr, numClasses int, cfg Config) ([]TraceStep, error) {
	f := NewFinder(cfg)
	f.ensureScratch(numClasses)
	v := f.indexInto(&f.live, tuples, attr, numClasses)
	if v == nil {
		return nil, fmt.Errorf("split: attribute %d carries no probability mass", attr)
	}

	var steps []TraceStep
	add := func(name string, points []float64, intervals [][2]float64) {
		steps = append(steps, TraceStep{Row: len(steps) + 1, Name: name, Points: points, Intervals: intervals})
	}

	// Row 1: the pdf domains of the tuples.
	var domains [][2]float64
	for _, t := range tuples {
		if p := t.Num[attr]; p != nil {
			domains = append(domains, [2]float64{p.Min(), p.Max()})
		}
	}
	add("pdf domains", nil, domains)

	// Row 2: the end point set Q_j.
	ends := f.endsFor(v)
	add("end points Q_j", append([]float64(nil), ends...), nil)

	// Row 3: the fine intervals the end points induce.
	add("fine intervals", nil, consecutive(ends))

	// Row 4: the sampled end points Q'_j.
	sampledIdx := sampleIndices(len(ends), f.esStride())
	sampled := make([]float64, len(sampledIdx))
	for i, idx := range sampledIdx {
		sampled[i] = ends[idx]
	}
	add("sampled end points Q'_j", sampled, nil)

	// Row 5: the coarse intervals between sampled end points.
	add("coarse intervals", nil, consecutive(sampled))

	// Establish the pruning threshold from the sampled end points, as
	// phase 1 of UDT-ES does.
	s := new(endIndex)
	s.summarize(v, ends)
	parentH := f.parentEntropy(tuples, numClasses)
	best := Result{Score: math.Inf(1)}
	for _, idx := range sampledIdx {
		if idx+1 < len(ends) {
			f.evalCandidate(&s.attrView, attr, idx, parentH, &best)
		}
	}

	// Row 6: coarse intervals surviving empty/homogeneous skipping and the
	// bound (the candidate set Y' of the paper).
	var surviving [][2]float64
	var expandedEnds []float64
	var fineSurviving [][2]float64
	for k := 0; k+1 < len(sampledIdx); k++ {
		loEnd, hiEnd := sampledIdx[k], sampledIdx[k+1]
		kTotal, skip := f.settled(s, loEnd, hiEnd)
		if skip || f.pruneByBound(s, loEnd, kTotal, parentH, &best) {
			continue
		}
		surviving = append(surviving, [2]float64{ends[loEnd], ends[hiEnd]})
		// Row 7 material: the original end points inside the survivor.
		for e := loEnd; e <= hiEnd; e++ {
			expandedEnds = append(expandedEnds, ends[e])
			if e > loEnd && e+1 <= hiEnd && e+1 < len(ends) {
				f.evalCandidate(&s.attrView, attr, e, parentH, &best)
			}
		}
		// Row 9 material: fine intervals inside the survivor that still
		// need their interiors evaluated.
		for e := loEnd; e+1 <= hiEnd; e++ {
			fTotal, skip := f.settled(s, e, e+1)
			if skip || f.pruneByBound(s, e, fTotal, parentH, &best) {
				continue
			}
			fineSurviving = append(fineSurviving, [2]float64{ends[e], ends[e+1]})
		}
	}
	add("surviving coarse intervals Y'", nil, surviving)

	// Row 7: end points brought back inside the survivors.
	add("re-expanded end points Q''_j", dedupSorted(expandedEnds), nil)

	// Row 8: their fine intervals.
	var fineAll [][2]float64
	for _, iv := range surviving {
		loI := indexOf(ends, iv[0])
		hiI := indexOf(ends, iv[1])
		fineAll = append(fineAll, consecutive(ends[loI:hiI+1])...)
	}
	add("re-expanded fine intervals", nil, fineAll)

	// Row 9: the final candidate intervals Y''.
	add("final candidate intervals Y''", nil, fineSurviving)
	return steps, nil
}

// consecutive pairs consecutive values into intervals.
func consecutive(xs []float64) [][2]float64 {
	if len(xs) < 2 {
		return nil
	}
	out := make([][2]float64, 0, len(xs)-1)
	for i := 0; i+1 < len(xs); i++ {
		out = append(out, [2]float64{xs[i], xs[i+1]})
	}
	return out
}

func dedupSorted(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

func indexOf(xs []float64, x float64) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// FprintTrace renders the trace as the paper's nine annotated rows.
func FprintTrace(w io.Writer, steps []TraceStep) {
	for _, s := range steps {
		fmt.Fprintf(w, "row %d  %-32s", s.Row, s.Name)
		switch {
		case s.Points != nil:
			parts := make([]string, len(s.Points))
			for i, p := range s.Points {
				parts[i] = fmt.Sprintf("%.4g", p)
			}
			fmt.Fprintf(w, "x: %s\n", strings.Join(parts, " "))
		case len(s.Intervals) > 0:
			parts := make([]string, len(s.Intervals))
			for i, iv := range s.Intervals {
				parts[i] = fmt.Sprintf("(%.4g,%.4g]", iv[0], iv[1])
			}
			fmt.Fprintf(w, "%s\n", strings.Join(parts, " "))
		default:
			fmt.Fprintln(w, "(none)")
		}
	}
}
