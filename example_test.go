package udt_test

import (
	"encoding/json"
	"fmt"

	"udt"
)

// ExampleBuild reproduces the paper's worked example (Table 1): six
// one-attribute tuples whose means collapse into two groups. The
// Averaging tree cannot discern them; the Distribution-based tree can.
func ExampleBuild() {
	ds := udt.NewDataset("table1", 1, []string{"A", "B"})
	ds.Add(0, udt.PointPDF(2))
	ds.Add(0, mustPDF([]float64{-6, 2}, []float64{1, 1}))
	ds.Add(0, mustPDF([]float64{-1, 1, 10}, []float64{5, 1, 2}))
	ds.Add(1, udt.PointPDF(-2))
	ds.Add(1, mustPDF([]float64{-2, 6}, []float64{1, 1}))
	ds.Add(1, mustPDF([]float64{-4, 0}, []float64{1, 1}))

	cfg := udt.Config{MinWeight: 0.01}
	avg, _ := udt.BuildAveraging(ds, cfg)
	dist, _ := udt.Build(ds, cfg)
	avgModel, _ := udt.TreeModel(avg)
	distModel, _ := udt.TreeModel(dist)

	fmt.Printf("Averaging:          %.0f%%\n", udt.Accuracy(avgModel, ds)*100)
	fmt.Printf("Distribution-based: %.0f%%\n", udt.Accuracy(distModel, ds)*100)
	// Output:
	// Averaging:          67%
	// Distribution-based: 100%
}

// ExampleTree_Classify shows the probabilistic classification of §3.2: a
// test tuple whose pdf straddles the split points receives a probability
// for every class.
func ExampleTree_Classify() {
	ds := udt.NewDataset("demo", 1, []string{"low", "high"})
	for i := 0; i < 20; i++ {
		v := float64(i % 2 * 10)
		p, _ := udt.UniformPDF(v-1, v+1, 21)
		ds.Add(i%2, p)
	}
	tree, _ := udt.Build(ds, udt.Config{MinWeight: 1})

	// A tuple spread evenly over [-1, 11]: most of its mass lies beyond
	// the learned split, so "high" dominates but "low" keeps probability.
	q, _ := udt.UniformPDF(-1, 11, 25)
	dist := tree.Classify(&udt.Tuple{Num: []*udt.PDF{q}, Weight: 1})
	fmt.Printf("P(low)+P(high) = %.0f\n", dist[0]+dist[1])
	fmt.Printf("P(high) > P(low) > 0: %v\n", dist[1] > dist[0] && dist[0] > 0)
	// Output:
	// P(low)+P(high) = 1
	// P(high) > P(low) > 0: true
}

// ExampleTree_Compile shows the serving path: a built tree is interned
// into the compiled arena engine, whose batch APIs classify many
// tuples concurrently and return exactly the recursive results.
func ExampleTree_Compile() {
	ds := udt.NewDataset("demo", 1, []string{"low", "high"})
	for i := 0; i < 20; i++ {
		v := float64(i % 2 * 10)
		p, _ := udt.UniformPDF(v-1, v+1, 21)
		ds.Add(i%2, p)
	}
	tree, _ := udt.Build(ds, udt.Config{MinWeight: 1})

	compiled, _ := tree.Compile()
	preds := compiled.PredictBatch(ds.Tuples, 4) // up to 4 workers
	agree := 0
	for i, tu := range ds.Tuples {
		if preds[i] == tree.Predict(tu) {
			agree++
		}
	}
	fmt.Printf("nodes: %d\n", compiled.NumNodes())
	fmt.Printf("batch agrees with recursive on %d/20 tuples\n", agree)
	// Output:
	// nodes: 3
	// batch agrees with recursive on 20/20 tuples
}

// ExampleTree_MarshalJSON round-trips a model through its JSON document —
// the format "udtree train" writes and "udtserve -model" loads. The
// restored tree classifies identically without the training data.
func ExampleTree_MarshalJSON() {
	ds := udt.NewDataset("table1", 1, []string{"A", "B"})
	ds.Add(0, udt.PointPDF(2))
	ds.Add(0, mustPDF([]float64{-6, 2}, []float64{1, 1}))
	ds.Add(0, mustPDF([]float64{-1, 1, 10}, []float64{5, 1, 2}))
	ds.Add(1, udt.PointPDF(-2))
	ds.Add(1, mustPDF([]float64{-2, 6}, []float64{1, 1}))
	ds.Add(1, mustPDF([]float64{-4, 0}, []float64{1, 1}))
	tree, _ := udt.Build(ds, udt.Config{MinWeight: 0.01})

	blob, _ := json.Marshal(tree)
	var restored udt.Tree
	if err := json.Unmarshal(blob, &restored); err != nil {
		panic(err)
	}

	same := true
	for _, tu := range ds.Tuples {
		if restored.Predict(tu) != tree.Predict(tu) {
			same = false
		}
	}
	fmt.Printf("restored %d nodes, identical predictions: %v\n",
		restored.Stats.Nodes, same)
	// Output:
	// restored 13 nodes, identical predictions: true
}

// ExampleTrainForest shows the ensemble path: a bagged forest of compiled
// trees is trained with a fixed seed (deterministic at any Workers value),
// classifies a batch, and round-trips through the versioned multi-tree JSON
// container that "udtserve" loads alongside legacy single-tree models.
func ExampleTrainForest() {
	ds := udt.NewDataset("demo", 1, []string{"low", "high"})
	for i := 0; i < 40; i++ {
		v := float64(i % 2 * 10)
		p, _ := udt.UniformPDF(v-1, v+1, 21)
		ds.Add(i%2, p)
	}
	f, _ := udt.TrainForest(ds, udt.ForestConfig{
		Trees:      7,
		Seed:       1,
		Workers:    4,
		TreeConfig: udt.Config{MinWeight: 1},
	})

	preds := f.PredictBatch(ds.Tuples, 4)
	blob, _ := json.Marshal(f)
	var restored udt.Forest
	if err := json.Unmarshal(blob, &restored); err != nil {
		panic(err)
	}
	same := true
	for i, tu := range ds.Tuples {
		if restored.Predict(tu) != preds[i] {
			same = false
		}
	}
	fmt.Printf("trees: %d\n", restored.NumTrees())
	fmt.Printf("restored predictions identical: %v\n", same)
	fmt.Printf("out-of-bag estimate available: %v\n", f.OOB.Evaluated > ds.Len()/2)
	// Output:
	// trees: 7
	// restored predictions identical: true
	// out-of-bag estimate available: true
}

// ExamplePDFFromSamples models an attribute directly from repeated
// measurements, the JapaneseVowel pattern of §4.3.
func ExamplePDFFromSamples() {
	readings := []float64{36.5, 36.7, 36.6, 36.8, 36.6}
	p, _ := udt.PDFFromSamples(readings)
	fmt.Printf("mean %.2f, support [%.1f, %.1f]\n", p.Mean(), p.Min(), p.Max())
	// Output:
	// mean 36.64, support [36.5, 36.8]
}

func mustPDF(xs, ms []float64) *udt.PDF {
	p, err := udt.NewPDF(xs, ms)
	if err != nil {
		panic(err)
	}
	return p
}
