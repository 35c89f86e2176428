// Tuning: the §4.4 question — how wide should the synthetic error model
// be? Sensor readings arrive with unknown noise; candidate widths are
// scored by repeated cross-validation and the plateau midpoint is chosen
// (Eq. 2's practical side). The example also demonstrates the §2
// missing-value technique: gaps are filled with the attribute's average
// pdf before training.
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"log"
	"math/rand"

	"udt"
)

func main() {
	rng := rand.New(rand.NewSource(2024))

	// Point readings contaminated with hidden Gaussian noise (the "true"
	// noise level is unknown to the analyst).
	const hiddenNoise = 0.35
	pts := &udt.Points{
		Name:    "sensor",
		Attrs:   []string{"reading"},
		Classes: []string{"low", "high"},
	}
	for i := 0; i < 120; i++ {
		class := i % 2
		v := float64(class) + rng.NormFloat64()*hiddenNoise
		pts.Rows = append(pts.Rows, []float64{v})
		pts.Labels = append(pts.Labels, class)
	}

	// Sweep candidate widths; pick the plateau midpoint (§4.4).
	cfg := udt.Config{Strategy: udt.StrategyGP, MinWeight: 4, MaxDepth: 8, PostPrune: true}
	ws := []float64{0.01, 0.05, 0.10, 0.20, 0.40}
	bestW, points, err := udt.TuneWidth(pts, ws, 30, udt.GaussianModel, cfg, 4, 5, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("width sweep (mean CV accuracy ± stderr):")
	for _, p := range points {
		fmt.Printf("  w=%4.0f%%  %.1f%% ± %.1f%%\n", p.W*100, p.Mean*100, p.StdErr*100)
	}
	fmt.Printf("chosen width: %.0f%%\n\n", bestW*100)

	// Build the final model at the tuned width — after repairing missing
	// values with the §2 average-pdf technique.
	ds, err := udt.Inject(pts, udt.InjectConfig{W: bestW, S: 100, Model: udt.GaussianModel})
	if err != nil {
		log.Fatal(err)
	}
	// Knock out 10% of the values to simulate collection gaps.
	missing := 0
	for _, tu := range ds.Tuples {
		if rng.Float64() < 0.1 {
			tu.Num[0] = nil
			missing++
		}
	}
	repaired, err := udt.FillMissing(ds)
	if err != nil {
		log.Fatal(err)
	}
	tree, err := udt.Build(repaired, cfg)
	if err != nil {
		log.Fatal(err)
	}
	model, err := udt.TreeModel(tree)
	if err != nil {
		log.Fatal(err)
	}
	_, brier, logLoss := udt.Evaluate(model, repaired)
	fmt.Printf("repaired %d missing values; final model: %s\n", missing, tree)
	fmt.Printf("training accuracy %.1f%%, Brier %.4f, log-loss %.4f\n",
		udt.Accuracy(model, repaired)*100, brier, logLoss)
}
