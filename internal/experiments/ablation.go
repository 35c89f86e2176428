package experiments

import (
	"fmt"
	"io"
	"time"

	"udt/internal/core"
	"udt/internal/data"
	"udt/internal/split"
	"udt/internal/uci"
)

// Ablation studies for two of the paper's design choices (README.md,
// "Reproducing the paper"): the UDT-ES end-point sample fraction (the paper
// fixes 10% after experimentation, §5.3) and the §7.3 percentile end-point
// mode.

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Label        string
	BuildTime    time.Duration
	EntropyCalcs int64
	Nodes        int
}

// ESFractionAblation sweeps the UDT-ES end-point sample fraction on one
// dataset. Too small a fraction weakens the phase-1 threshold (more coarse
// intervals survive); too large a fraction degenerates toward UDT-GP's end
// point count. The resulting tree is identical in every configuration.
func ESFractionAblation(o Options, dataset string, fracs []float64) ([]AblationRow, error) {
	o = o.withDefaults()
	if len(fracs) == 0 {
		fracs = []float64{0.02, 0.05, 0.10, 0.20, 0.50}
	}
	spec, err := uci.ByName(dataset)
	if err != nil {
		return nil, err
	}
	train, _, err := loadInjected(spec, o, o.W, data.GaussianModel)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, frac := range fracs {
		cfg := o.treeConfig(split.ES)
		cfg.EndPointFrac = frac
		start := time.Now()
		tree, err := core.Build(train, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Label:        fmt.Sprintf("frac=%.0f%%", frac*100),
			BuildTime:    time.Since(start),
			EntropyCalcs: tree.Stats.Search.EntropyCalcs(),
			Nodes:        tree.Stats.Nodes,
		})
	}
	return rows, nil
}

// EndPointModeAblation compares domain end points (§5.1) against the §7.3
// percentile artificial end points under UDT-GP, for narrow and wide pdfs.
func EndPointModeAblation(o Options, dataset string) ([]AblationRow, error) {
	o = o.withDefaults()
	spec, err := uci.ByName(dataset)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, w := range []float64{o.W, o.W * 4} {
		train, _, err := loadInjected(spec, o, w, data.GaussianModel)
		if err != nil {
			return nil, err
		}
		for _, mode := range []split.EndPointMode{split.DomainEnds, split.PercentileEnds} {
			cfg := o.treeConfig(split.GP)
			cfg.EndPoints = mode
			start := time.Now()
			tree, err := core.Build(train, cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationRow{
				Label:        fmt.Sprintf("w=%.0f%% ends=%v", w*100, mode),
				BuildTime:    time.Since(start),
				EntropyCalcs: tree.Stats.Search.EntropyCalcs(),
				Nodes:        tree.Stats.Nodes,
			})
		}
	}
	return rows, nil
}

// FprintAblation renders an ablation table.
func FprintAblation(w io.Writer, rows []AblationRow) {
	fmt.Fprintf(w, "%-24s %12s %15s %7s\n", "config", "build", "entropy calcs", "nodes")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %12s %15d %7d\n",
			r.Label, r.BuildTime.Round(time.Microsecond), r.EntropyCalcs, r.Nodes)
	}
}
